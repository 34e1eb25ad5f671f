package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// TestAttributionMatchesGroundTruth runs the scenario battery × fault
// matrix at quick duration, one parallel subtest per scenario, and
// asserts the stated tolerance: the top-ranked verdict must name the
// injected cause kind and one of its target servers under the clean, 5%
// loss and clock-skew conditions of every scenario. Duplication and
// truncation rows are observability only (truncation shortens the window
// and may legitimately weaken periodic fingerprints), but are still
// required to produce a verdict.
func TestAttributionMatchesGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario battery is seconds-per-cell")
	}
	t.Parallel()
	names := ntier.ScenarioNames()
	if len(names) != 6 {
		t.Fatalf("scenarios = %d, want 6", len(names))
	}
	strict := map[string]bool{"clean": true, "5% loss": true, "skew mysql-1 -5ms": true}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rows, err := attributePreset(name, QuickOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 5 {
				t.Fatalf("rows = %d, want 5 conditions", len(rows))
			}
			for _, row := range rows {
				if row.TopKind == "" {
					t.Errorf("%s/%s: no verdict at all", row.Scenario, row.Condition)
					continue
				}
				if strict[row.Condition] && !row.Match {
					t.Errorf("%s/%s: top verdict %s@%s, ground truth %s@%v",
						row.Scenario, row.Condition, row.TopKind, row.TopServer,
						row.TruthKind, row.TruthServers)
				}
			}
		})
	}
}

// lenientDigests pins the lenient wire path — RepairSkew, then
// AssembleLenient with a 5 s in-flight watchdog — on the conn-pool
// preset at seed 1, 6 s plus a 2 s ramp, under every attribution
// condition: the SHA-256 of the assembled visits written as
// traceio.WriteVisits writes them, and both reports.
var lenientDigests = map[string]struct {
	visits string
	arep   trace.AssemblyReport
	srep   trace.SkewReport
}{
	"clean": {
		visits: "50de53890a7df90b05358840fadf09e5a60390eb112ebc95e0b1dbed4165a162",
		arep:   trace.AssemblyReport{Visits: 69898, InFlight: 550},
	},
	"5% loss": {
		visits: "e8198d206f2a5e739e084383b51b864a011bf1176ae83aaebd74988e7e4685fe",
		arep:   trace.AssemblyReport{Visits: 63193, OrphanReturns: 3170, InFlight: 2574, TimedOut: 1306},
	},
	"skew mysql-1 -5ms": {
		visits: "a370bfeb9e5dee8cdc5af0da66f535f0a9c931f7e54aed70ce0f7399260efc9d",
		arep:   trace.AssemblyReport{Visits: 69898, InFlight: 550},
		srep: trace.SkewReport{
			Offsets:    map[string]simnet.Duration{"mysql-1": 4170},
			Violations: 13621,
			Shifted:    13702,
		},
	},
	"5% duplication": {
		visits: "50de53890a7df90b05358840fadf09e5a60390eb112ebc95e0b1dbed4165a162",
		arep:   trace.AssemblyReport{Visits: 69898, DuplicateCalls: 3480, DuplicateReturns: 3584, InFlight: 550},
	},
	"truncate at 80%": {
		visits: "e3fe51ae1a0f1532bc7dc5313e60bbd7ad6b47afefa7bb6a7598ec94d786ab8e",
		arep:   trace.AssemblyReport{Visits: 59403, InFlight: 559},
	},
}

func TestLenientAssemblyDigests(t *testing.T) {
	t.Parallel()
	cfg, err := ntier.ScenarioPreset("conn-pool", 1, 6*simnet.Second, 2*simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range attributionConditions(1, res.WindowStart, res.WindowEnd) {
		msgs := res.Messages
		if c.spec != nil {
			msgs, _ = ntier.InjectFaults(msgs, *c.spec)
		}
		repaired, srep := trace.RepairSkew(msgs)
		visits, arep := trace.AssembleLenient(repaired, trace.AssembleOptions{InFlightTimeout: 5 * simnet.Second})
		var buf bytes.Buffer
		if err := traceio.WriteVisits(&buf, visits); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		want, ok := lenientDigests[c.label]
		if !ok {
			t.Fatalf("no pinned digest for condition %q", c.label)
		}
		if got != want.visits {
			t.Errorf("%s: visit digest %s, want %s", c.label, got, want.visits)
		}
		if arep != want.arep {
			t.Errorf("%s: assembly report %#v, want %#v", c.label, arep, want.arep)
		}
		if !reflect.DeepEqual(srep, want.srep) {
			t.Errorf("%s: skew report %+v, want %+v", c.label, srep, want.srep)
		}
	}
}
