package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/jvm"
	"transientbd/internal/ntier"
	"transientbd/internal/server"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
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
//
// The same runs also grade two more engines on their clean rows, each
// against a floor: batch analysis of the run's visits, and the streaming
// runtime replaying those visits in completion order with tbdetect
// -follow's defaults. A floor is the count of scenarios an engine names
// correctly today; a regression fails, and a gain raises the floor. They
// also count where a self-estimated online snapshot disagrees with batch
// (onlineDisagreements), against the presets' agreement ceiling.
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
	floors := map[string]int{"wire": 6, "visits": 6, "follow": 3}
	opts := QuickOpts(1)
	var mu sync.Mutex
	matched := map[string]int{}
	disagree := map[string]int{}
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		checkAgreement(t, "presets", disagree)
		for engine, floor := range floors {
			if matched[engine] < floor {
				t.Errorf("%s engine names %d of 6 clean scenarios, floor %d", engine, matched[engine], floor)
			} else {
				t.Logf("%s engine names %d of 6 clean scenarios (floor %d)", engine, matched[engine], floor)
			}
		}
	})
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rows, res, err := attributePreset(name, opts)
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
			byDepart := visitsByDepart(res)
			inWin := inWindow(byDepart, res)
			snap, err := replayFollow(inWin)
			if err != nil {
				t.Fatal(err)
			}
			engines := map[string][]cause.Verdict{
				"visits": visitVerdicts(t, res),
				"follow": cause.AttributeAnalyses(snap.Ranking, cause.Options{Downstream: snap.Graph}),
			}
			cfg, err := ntier.ScenarioPreset(name, opts.Seed, opts.duration(), opts.ramp())
			if err != nil {
				t.Fatal(err)
			}
			sys, err := ntier.Build(cfg) // the tier structure; never run
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range graphMismatches(sys, res, byDepart, snap.Graph) {
				t.Error(m)
			}
			counts, err := onlineDisagreements(res, inWin)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for server, n := range counts {
				disagree[name+"/"+server] = n
			}
			if rows[0].Match {
				matched["wire"]++
			}
			for engine, vs := range engines {
				top := "no verdict"
				if len(vs) > 0 {
					top = string(vs[0].Kind) + "@" + vs[0].Server
					if string(vs[0].Kind) == string(rows[0].TruthKind) && contains(rows[0].TruthServers, vs[0].Server) {
						matched[engine]++
					}
				}
				t.Logf("%s engine: top verdict %s, ground truth %s@%v", engine, top, rows[0].TruthKind, rows[0].TruthServers)
			}
		})
	}
}

// visitVerdicts is batch analysis of a run's visits over its measured
// window, the way tbdetect -in analyzes a visit trace.
func visitVerdicts(t *testing.T, res *ntier.Result) []cause.Verdict {
	t.Helper()
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	sysA, err := core.AnalyzeSystemGrouped(trace.PerServer(res.Visits), w, core.Options{Interval: 50 * simnet.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return cause.AttributeAnalyses(sysA.Ranked(), cause.Options{Downstream: visitCallGraph(res.Visits)})
}

// visitsByDepart returns a run's visits in completion order (ntiersim
// -order depart).
func visitsByDepart(res *ntier.Result) []trace.Visit {
	vs := slices.Clone(res.Visits)
	slices.SortFunc(vs, trace.CompareDepart)
	return vs
}

// inWindow returns the visits departing inside the run's measured window,
// in their order.
func inWindow(visits []trace.Visit, res *ntier.Result) []trace.Visit {
	var vs []trace.Visit
	for _, v := range visits {
		if v.Depart >= res.WindowStart && v.Depart < res.WindowEnd {
			vs = append(vs, v)
		}
	}
	return vs
}

// visitCallGraph derives the call graph from a run's visits, the way
// tbdetect -in does from a visit trace.
func visitCallGraph(visits []trace.Visit) map[string][]string {
	var b trace.CallGraphBuilder
	for _, v := range visits {
		b.Add(v)
	}
	return b.Graph()
}

// replayFollow replays visits, in the order given, through the streaming
// runtime with tbdetect -follow's defaults and returns its final
// snapshot, which -follow attributes for its verdict block.
func replayFollow(visits []trace.Visit) (*stream.Snapshot, error) {
	rt, err := stream.New(stream.Config{})
	if err != nil {
		return nil, err
	}
	go func() {
		for range rt.Alerts() {
		}
	}()
	for _, v := range visits {
		if err := rt.Observe(v); err != nil {
			rt.Abort()
			return nil, err
		}
	}
	return rt.Close(), nil
}

// tierCallGraph is the simulated testbed's tier structure as a call
// graph: web servers call the app tier, app servers the cluster tier, and
// the cluster middleware the DB tier. It is the reference every derived
// graph is checked against.
func tierCallGraph(sys *ntier.System) map[string][]string {
	m := make(map[string][]string)
	for _, hop := range [][2][]*server.Server{
		{sys.WebServers(), sys.AppServers()},
		{sys.AppServers(), sys.ClusterServers()},
		{sys.ClusterServers(), sys.DBServers()},
	} {
		var callees []string
		for _, srv := range hop[1] {
			callees = append(callees, srv.Name())
		}
		slices.Sort(callees)
		for _, srv := range hop[0] {
			m[srv.Name()] = callees
		}
	}
	return m
}

// graphMismatches checks every source of a call graph on one run against
// the testbed's tier structure: the builder over the run's visits in
// arrival order (as assembled) and in completion order (byDepart), the
// streaming replay's snapshot, and the wire capture's messages. It
// returns one line per source that differs.
func graphMismatches(sys *ntier.System, res *ntier.Result, byDepart []trace.Visit, replayed map[string][]string) []string {
	want := tierCallGraph(sys)
	var out []string
	for _, src := range []struct {
		name  string
		graph map[string][]string
	}{
		{"builder in arrival order", visitCallGraph(res.Visits)},
		{"builder in completion order", visitCallGraph(byDepart)},
		{"stream replay snapshot", replayed},
		{"wire messages", trace.CallGraph(res.Messages)},
	} {
		if !reflect.DeepEqual(src.graph, want) {
			out = append(out, fmt.Sprintf("%s: call graph %v, want the tier structure %v", src.name, src.graph, want))
		}
	}
	return out
}

// caseGraphs holds a caseCheck for each of the paper's two case-study
// runs, keyed by caseGraphRun's names, as simulate hands them over.
var caseGraphs sync.Map

// caseCheck is what caseGraphRun found on one case-study run: its
// graphMismatches and its onlineDisagreements.
type caseCheck struct {
	mismatches []string
	disagree   map[string]int
}

func init() { simulated = caseGraphRun }

// caseGraphRun records graphMismatches and onlineDisagreements for the
// case-study runs: the
// serial collector at WL 14 000 (TestGCCaseShape) and SpeedStep at
// WL 8 000 (TestSpeedStepCaseShape), both at QuickOpts(1). Other runners
// simulate the same configurations; the first run of each is checked. A
// run at another seed or span is another configuration, and is skipped:
// TestFig2HistogramLongTail runs SpeedStep at WL 8 000 with seed 2.
func caseGraphRun(sys *ntier.System, res *ntier.Result) {
	cfg := sys.Config()
	if q := testbed(cfg.Users, QuickOpts(1)); cfg.Seed != q.Seed || cfg.Duration != q.Duration || cfg.Ramp != q.Ramp {
		return
	}
	var name string
	switch {
	case cfg.Users == 14000 && cfg.AppCollector == jvm.CollectorSerial:
		name = "serial GC at WL 14 000"
	case cfg.Users == 8000 && cfg.DBSpeedStep:
		name = "SpeedStep at WL 8 000"
	default:
		return
	}
	if _, seen := caseGraphs.Load(name); seen {
		return
	}
	byDepart := visitsByDepart(res)
	inWin := inWindow(byDepart, res)
	snap, err := replayFollow(inWin)
	if err != nil {
		caseGraphs.Store(name, caseCheck{mismatches: []string{err.Error()}})
		return
	}
	c := caseCheck{mismatches: graphMismatches(sys, res, byDepart, snap.Graph)}
	if c.disagree, err = onlineDisagreements(res, inWin); err != nil {
		c.mismatches = append(c.mismatches, err.Error())
	}
	caseGraphs.Store(name, c)
}

// checkCaseGraphs fails t with the named case-study run's mismatches, and
// when its online snapshot disagrees with batch beyond the run's ceiling.
func checkCaseGraphs(t *testing.T, name string) {
	t.Helper()
	got, ok := caseGraphs.Load(name)
	if !ok {
		t.Fatalf("no %s run was simulated", name)
	}
	c := got.(caseCheck)
	for _, m := range c.mismatches {
		t.Errorf("%s: %s", name, m)
	}
	checkAgreement(t, name, c.disagree)
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
