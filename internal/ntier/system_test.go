package ntier

import (
	"strings"
	"testing"

	"transientbd/internal/core"
	"transientbd/internal/jvm"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/workload"
)

// smallConfig returns a fast-running config for functional tests.
func smallConfig() Config {
	return Config{
		Users:    200,
		Duration: 20 * simnet.Second,
		Ramp:     5 * simnet.Second,
		Seed:     42,
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("want error for zero users")
	}
	if _, err := Build(Config{Users: 10, Topology: Topology{Web: 1}}); err == nil {
		t.Error("want error for partial topology")
	}
}

func TestTopologyString(t *testing.T) {
	if got := Default1L2S1L2S().String(); got != "1L/2S/1L/2S" {
		t.Errorf("String = %q, want 1L/2S/1L/2S", got)
	}
}

func TestDefaultTopologyServerNames(t *testing.T) {
	sys, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, srv := range sys.AllServers() {
		names = append(names, srv.Name())
	}
	want := []string{"apache", "tomcat-1", "tomcat-2", "cjdbc", "mysql-1", "mysql-2"}
	if len(names) != len(want) {
		t.Fatalf("servers = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("server[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	sys, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no RT samples")
	}
	if len(res.Visits) == 0 {
		t.Fatal("no visits")
	}
	if res.WindowStart != 5*simnet.Second || res.WindowEnd != 25*simnet.Second {
		t.Errorf("window = [%v,%v]", res.WindowStart, res.WindowEnd)
	}
	for _, s := range res.Samples {
		if s.Issued < res.WindowStart {
			t.Fatalf("ramp sample leaked: issued %v", s.Issued)
		}
		if s.Done < s.Issued {
			t.Fatalf("negative RT: %+v", s)
		}
	}
	// Utilization present for every server, in [0,1].
	for _, srv := range sys.AllServers() {
		u, ok := res.Utilization[srv.Name()]
		if !ok {
			t.Errorf("missing utilization for %s", srv.Name())
		}
		if u < 0 || u > 1.000001 {
			t.Errorf("utilization[%s] = %v out of range", srv.Name(), u)
		}
	}
}

func TestTransactionStructure(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 20 // light load: no queueing weirdness
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	mixByName := make(map[string]workload.Interaction)
	for _, ix := range workload.BrowseOnlyMix() {
		mixByName[ix.Name] = ix
	}
	txns := trace.Transactions(res.Visits)
	checked := 0
	for _, visits := range txns {
		var apacheVisits, tomcatVisits, cjdbcVisits, mysqlVisits int
		var pageClass string
		for _, v := range visits {
			switch {
			case v.Server == "apache":
				apacheVisits++
				pageClass = v.Class
			case strings.HasPrefix(v.Server, "tomcat"):
				tomcatVisits++
			case v.Server == "cjdbc":
				cjdbcVisits++
			case strings.HasPrefix(v.Server, "mysql"):
				mysqlVisits++
			}
		}
		if apacheVisits == 0 {
			continue // transaction truncated at capture boundary
		}
		ix, ok := mixByName[pageClass]
		if !ok {
			t.Fatalf("unknown page class %q", pageClass)
		}
		if apacheVisits != 1 || tomcatVisits != 1 {
			t.Fatalf("txn visits: apache=%d tomcat=%d, want 1/1", apacheVisits, tomcatVisits)
		}
		if cjdbcVisits != len(ix.Queries) || mysqlVisits != len(ix.Queries) {
			t.Fatalf("txn %s: cjdbc=%d mysql=%d, want %d queries",
				pageClass, cjdbcVisits, mysqlVisits, len(ix.Queries))
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("checked only %d complete transactions", checked)
	}
}

func TestLowLoadResponseTimeNearServiceDemand(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 10
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Total service demand per page ≈ 7ms; at 10 users there is no
	// queueing, so mean RT must be close to that.
	rts := workload.ResponseTimesSeconds(res.Samples)
	var sum float64
	for _, rt := range rts {
		sum += rt
	}
	mean := sum / float64(len(rts))
	if mean < 0.004 || mean > 0.02 {
		t.Errorf("idle mean RT = %.4fs, want ~0.007s", mean)
	}
}

func TestRoundRobinBalancesTiers(t *testing.T) {
	sys, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	per := trace.PerServer(res.Visits)
	t1, t2 := len(per["tomcat-1"]), len(per["tomcat-2"])
	if t1 == 0 || t2 == 0 {
		t.Fatal("a tomcat received no traffic")
	}
	ratio := float64(t1) / float64(t2)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("tomcat balance = %d/%d", t1, t2)
	}
	m1, m2 := len(per["mysql-1"]), len(per["mysql-2"])
	ratio = float64(m1) / float64(m2)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("mysql balance = %d/%d", m1, m2)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (*Result, error) {
		sys, err := Build(smallConfig())
		if err != nil {
			return nil, err
		}
		return sys.Run()
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) || len(a.Messages) != len(b.Messages) {
		t.Fatalf("runs differ: %d/%d samples, %d/%d messages",
			len(a.Samples), len(b.Samples), len(a.Messages), len(b.Messages))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfgA := smallConfig()
	cfgB := smallConfig()
	cfgB.Seed = 43
	sysA, err := Build(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := Build(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := sysA.Run()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sysB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Messages) == len(resB.Messages) && len(resA.Samples) == len(resB.Samples) {
		same := true
		for i := range resA.Samples {
			if resA.Samples[i] != resB.Samples[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical runs")
		}
	}
}

func TestGCDisabledWhenCollectorZero(t *testing.T) {
	sys, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.AppHeaps()) != 0 {
		t.Errorf("heaps = %d, want 0 with no collector", len(sys.AppHeaps()))
	}
	for _, srv := range sys.AppServers() {
		if srv.Heap() != nil {
			t.Error("app server has heap despite disabled GC")
		}
	}
}

func TestGCEnabledCollectsUnderLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 2000
	cfg.AppCollector = jvm.CollectorSerial
	cfg.AppHeapBytes = 128 * jvm.MB
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.AppHeaps()) != 2 {
		t.Fatalf("heaps = %d, want 2", len(sys.AppHeaps()))
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var collections int
	for _, h := range sys.AppHeaps() {
		collections += h.Collections()
	}
	if collections == 0 {
		t.Error("no collections despite sustained allocation")
	}
}

func TestSpeedStepGovernorsOnlyOnDB(t *testing.T) {
	cfg := smallConfig()
	// Enough demand that the DB governor must climb out of its
	// power-saving initial state (P8 capacity ≈ 3,000 queries/s).
	cfg.Users = 9000
	cfg.DBSpeedStep = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Non-DB tiers are pinned to P0 and never transition.
	for _, srv := range append(sys.WebServers(), sys.AppServers()...) {
		if srv.Processor().Transitions() != 0 {
			t.Errorf("%s transitions = %d, want 0", srv.Name(), srv.Processor().Transitions())
		}
		if srv.Processor().State() != 0 {
			t.Errorf("%s state = %d, want P0", srv.Name(), srv.Processor().State())
		}
	}
	// DB governors should have moved (they start at the slowest state).
	moved := false
	for _, srv := range sys.DBServers() {
		if srv.Processor().Transitions() > 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("no DB P-state transitions despite SpeedStep enabled")
	}
}

func TestSpeedStepDisabledPinsP0(t *testing.T) {
	sys, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range sys.DBServers() {
		if srv.Processor().State() != 0 {
			t.Errorf("%s state = %d, want pinned P0", srv.Name(), srv.Processor().State())
		}
	}
}

func TestCustomTopology(t *testing.T) {
	cfg := smallConfig()
	cfg.Topology = Topology{Web: 2, App: 3, Cluster: 1, DB: 4}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.WebServers()) != 2 || len(sys.AppServers()) != 3 ||
		len(sys.ClusterServers()) != 1 || len(sys.DBServers()) != 4 {
		t.Error("custom topology not honored")
	}
	if sys.WebServers()[0].Name() != "apache-1" {
		t.Errorf("multi-instance web name = %q, want apache-1", sys.WebServers()[0].Name())
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Error("custom topology produced no samples")
	}
}

func TestPagesPerSecondEmptyWindow(t *testing.T) {
	r := &Result{}
	if r.PagesPerSecond() != 0 {
		t.Error("empty window should yield 0")
	}
}

func TestAntagonistValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Antagonist = &AntagonistConfig{}
	if _, err := Build(cfg); err == nil {
		t.Error("want error for missing target")
	}
	cfg.Antagonist = &AntagonistConfig{Target: "nosuch"}
	if _, err := Build(cfg); err == nil {
		t.Error("want error for unknown target")
	}
	cfg.Antagonist = &AntagonistConfig{
		Target: "mysql-1", Period: simnet.Second, BurstLen: 2 * simnet.Second,
	}
	if _, err := Build(cfg); err == nil {
		t.Error("want error for burst longer than period")
	}
}

func TestAntagonistStealsVictimCPU(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 500
	cfg.Antagonist = &AntagonistConfig{
		Target:   "mysql-1",
		Period:   2 * simnet.Second,
		BurstLen: 400 * simnet.Millisecond,
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The victim's CPU runs visibly hotter than its twin's: the hog adds
	// ~20% duty cycle of full occupancy.
	victim := res.Utilization["mysql-1"]
	twin := res.Utilization["mysql-2"]
	if victim < twin+0.1 {
		t.Errorf("victim util %.3f not clearly above twin %.3f", victim, twin)
	}
}

// The detection method rests on Denning & Buzen's operational laws; the
// simulator must satisfy them. Little's law per server: mean concurrent
// requests = completion rate × mean residence time.
func TestOperationalLawsHoldPerServer(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 2000
	cfg.Duration = 30 * simnet.Second
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	for _, name := range []string{"apache", "tomcat-1", "cjdbc", "mysql-1"} {
		visits := trace.Filter(res.Visits, name)
		// Restrict to visits fully inside the window.
		var inWin []trace.Visit
		var totalResidence float64
		for _, v := range visits {
			if v.Arrive >= w.Start && v.Depart < w.End {
				inWin = append(inWin, v)
				totalResidence += v.Residence().Seconds()
			}
		}
		if len(inWin) < 100 {
			t.Fatalf("%s: only %d in-window visits", name, len(inWin))
		}
		load, err := core.LoadSeries(inWin, w, 100*simnet.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var meanLoad float64
		for _, l := range load.Values() {
			meanLoad += l
		}
		meanLoad /= float64(load.Len())

		span := (w.End - w.Start).Seconds()
		completionRate := float64(len(inWin)) / span
		meanResidence := totalResidence / float64(len(inWin))
		littles := completionRate * meanResidence
		if meanLoad == 0 {
			t.Fatalf("%s: zero load", name)
		}
		if ratio := littles / meanLoad; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: Little's law ratio = %.3f (N̄=%.3f, X·R̄=%.3f)",
				name, ratio, meanLoad, littles)
		}
	}
}
