package transientbd

import (
	"strings"
	"testing"
	"time"
)

func TestRunScenarioSmoke(t *testing.T) {
	res, err := RunScenario(Scenario{
		Users:    300,
		Duration: 15 * time.Second,
		Ramp:     5 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.ResponseTimes) == 0 {
		t.Fatal("empty scenario result")
	}
	if res.PagesPerSecond <= 0 {
		t.Error("no throughput")
	}
	if len(res.Servers) != 6 {
		t.Errorf("servers = %v, want 6", res.Servers)
	}
	for _, name := range res.Servers {
		if _, ok := res.Utilization[name]; !ok {
			t.Errorf("missing utilization for %s", name)
		}
	}
	if res.WindowStart != 5*time.Second || res.WindowEnd != 20*time.Second {
		t.Errorf("window = [%v,%v]", res.WindowStart, res.WindowEnd)
	}
	// Every record keeps its transaction linkage: Analyze derives the
	// call graph from it, and lenient skew repair needs it.
	for i, r := range res.Records {
		if r.TxnID == 0 || r.HopID == 0 {
			t.Fatalf("record %d (%s) has TxnID %d, HopID %d; want both linked", i, r.Server, r.TxnID, r.HopID)
		}
	}
}

func TestRunScenarioValidation(t *testing.T) {
	if _, err := RunScenario(Scenario{}); err == nil {
		t.Error("want error for zero users")
	}
	if _, err := RunScenario(Scenario{Users: 10, AppCollector: Collector(99)}); err == nil {
		t.Error("want error for unknown collector")
	}
}

func TestAnalyzeScenarioEndToEnd(t *testing.T) {
	res, report, err := AnalyzeScenario(Scenario{
		Users:    300,
		Duration: 15 * time.Second,
		Ramp:     5 * time.Second,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Ranking) == 0 {
		t.Fatal("empty ranking")
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	// At 300 users nothing should be meaningfully congested.
	for _, sa := range report.Ranking {
		if sa.CongestedFraction > 0.1 {
			t.Errorf("%s congested %.3f at trivial load", sa.Server, sa.CongestedFraction)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() *ScenarioResult {
		res, err := RunScenario(Scenario{
			Users:    200,
			Duration: 10 * time.Second,
			Ramp:     3 * time.Second,
			Seed:     7,
			Bursty:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	if a.PagesPerSecond != b.PagesPerSecond {
		t.Error("throughput differs across identical runs")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestScenarioCollectorMapping(t *testing.T) {
	for _, col := range []Collector{CollectorNone, CollectorSerial, CollectorConcurrent} {
		res, err := RunScenario(Scenario{
			Users:        100,
			Duration:     5 * time.Second,
			Ramp:         2 * time.Second,
			Seed:         3,
			AppCollector: col,
			AppHeapMB:    64,
		})
		if err != nil {
			t.Fatalf("collector %d: %v", int(col), err)
		}
		if len(res.Records) == 0 {
			t.Fatalf("collector %d: empty result", int(col))
		}
	}
}

func TestScenarioTopologyValidation(t *testing.T) {
	base := Scenario{Users: 100, Duration: 5 * time.Second, Ramp: 2 * time.Second}

	bad := base
	bad.NoisyNeighborTarget = "mysql-9"
	if _, err := RunScenario(bad); err == nil || !strings.Contains(err.Error(), "not in topology") {
		t.Fatalf("bad antagonist target: got %v, want topology error listing servers", err)
	}

	bad = base
	bad.LockConvoyTarget = "memcached"
	if _, err := RunScenario(bad); err == nil || !strings.Contains(err.Error(), "not in topology") {
		t.Fatalf("bad convoy target: got %v, want topology error listing servers", err)
	}

	if _, err := RunScenario(Scenario{Preset: "no-such-scenario"}); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("bad preset: got %v, want unknown-scenario error", err)
	}
}

func TestScenarioPresetGroundTruth(t *testing.T) {
	names := ScenarioPresets()
	if len(names) != 6 {
		t.Fatalf("ScenarioPresets() = %v, want 6 battery scenarios", names)
	}
	for _, name := range names {
		if ScenarioPresetCause(name) == "" {
			t.Errorf("preset %q has no cause kind", name)
		}
	}
	if ScenarioPresetCause("no-such-scenario") != "" {
		t.Error("unknown preset should map to empty cause")
	}

	// One short preset run end to end: the injection log must come back
	// as public ground truth with the preset's cause kind and target.
	res, err := RunScenario(Scenario{
		Preset:   "noisy-neighbor",
		Users:    300, // override the canonical 7000 to keep the test fast
		Duration: 15 * time.Second,
		Ramp:     3 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroundTruth) != 1 {
		t.Fatalf("ground truth records = %d, want 1", len(res.GroundTruth))
	}
	gt := res.GroundTruth[0]
	if gt.Cause != ScenarioPresetCause("noisy-neighbor") {
		t.Errorf("cause = %q, want %q", gt.Cause, ScenarioPresetCause("noisy-neighbor"))
	}
	if len(gt.Servers) != 1 || gt.Servers[0] != "mysql-1" {
		t.Errorf("servers = %v, want [mysql-1]", gt.Servers)
	}
	if len(gt.Windows) == 0 {
		t.Fatal("no injection windows recorded")
	}
	for i, w := range gt.Windows {
		if w.End <= w.Start {
			t.Errorf("window %d: end %v <= start %v", i, w.End, w.Start)
		}
		if w.Start < 0 || w.End > 18*time.Second {
			t.Errorf("window %d [%v,%v) outside the run", i, w.Start, w.End)
		}
	}
}
