package experiments

import (
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/workload"
)

func TestScaleOutReducesCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulation runs")
	}
	t.Parallel()
	r, err := ScaleOut(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// §IV-D: further reduction of transient bottlenecks needs to
	// scale-out the MySQL tier. A third node must cut per-node congestion.
	if r.After.CongestedFraction >= r.Before.CongestedFraction {
		t.Errorf("3-node congestion %.3f not below 2-node %.3f",
			r.After.CongestedFraction, r.Before.CongestedFraction)
	}
	// Throughput must not regress.
	if r.PagesAfter < 0.95*r.PagesBefore {
		t.Errorf("throughput regressed: %.0f -> %.0f", r.PagesBefore, r.PagesAfter)
	}
}

func TestNormalizationAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := NormalizationAblation(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 7 claim at system scale: normalized throughput
	// correlates with load at least as well as raw counting on a
	// mixed-class workload — and both must be clearly positive below the
	// knee.
	if r.CorrNormalized < 0.5 {
		t.Errorf("normalized correlation = %.3f, want strong", r.CorrNormalized)
	}
	if r.CorrNormalized < r.CorrRaw-0.02 {
		t.Errorf("normalization hurt correlation: %.3f vs raw %.3f",
			r.CorrNormalized, r.CorrRaw)
	}
}

func TestGovernorSweepPolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("three simulation runs")
	}
	t.Parallel()
	r, err := GovernorSweep(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(r.Points))
	}
	step, ondemand, pinned := r.Points[0], r.Points[1], r.Points[2]
	// The sluggish BIOS-style governor must be the worst policy; the
	// responsive algorithm and the pinned clock both beat it.
	if ondemand.Congested >= step.Congested {
		t.Errorf("ondemand congestion %.3f not below step %.3f",
			ondemand.Congested, step.Congested)
	}
	if pinned.Congested >= step.Congested {
		t.Errorf("pinned congestion %.3f not below step %.3f",
			pinned.Congested, step.Congested)
	}
	// The other side of the ledger: pinning the clock at P0 costs more
	// energy than letting the governor throttle.
	if pinned.EnergyKJ <= step.EnergyKJ {
		t.Errorf("pinned energy %.1f kJ not above step %.1f kJ", pinned.EnergyKJ, step.EnergyKJ)
	}
}

func TestMVATracksMeansButMissesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	t.Parallel()
	r, err := MVACompare([]int{2000, 8000}, QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		// MVA throughput within 20% of the simulation below the knee.
		ratio := row.MVAThroughput / row.SimThroughput
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("WL %d: MVA X %.0f vs sim %.0f (ratio %.2f), want within 20%%",
				row.Users, row.MVAThroughput, row.SimThroughput, ratio)
		}
	}
	// The structural blind spot: at WL 8,000 MVA's predicted mean RT
	// stays far below the SLA, while the simulated tail sits far above
	// that mean. The full-duration run shows the same tail crossing 2 s
	// (experiments_mva.txt); this short one need not reach it.
	wl8 := r.Rows[1]
	if wl8.MVAMeanRT > 0.5 {
		t.Errorf("MVA mean RT at WL 8,000 = %.3fs, expected small", wl8.MVAMeanRT)
	}
	if wl8.SimP99RT < 2*wl8.MVAMeanRT {
		t.Errorf("WL 8,000: simulated p99 RT %.3fs not at least twice MVA's mean %.3fs",
			wl8.SimP99RT, wl8.MVAMeanRT)
	}
}

func TestStationsFromMixShape(t *testing.T) {
	st := stationsFromMix(workload.BrowseOnlyMix())
	if len(st) != 4 {
		t.Fatalf("stations = %d, want 4", len(st))
	}
	// Tomcat must carry the largest demand (it is the designed knee).
	var tomcat, mysql simnet.Duration
	for _, s := range st {
		switch s.Name {
		case "tomcat":
			tomcat = s.Demand
		case "mysql":
			mysql = s.Demand
		}
	}
	if tomcat <= mysql {
		t.Errorf("tomcat demand %v not above mysql %v", tomcat, mysql)
	}
}

func TestNoisyNeighborLocalized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := NoisyNeighbor(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// The victim must be clearly worse than its identical twin.
	if r.Victim.CongestedFraction <= r.Twin.CongestedFraction {
		t.Errorf("victim congestion %.3f not above twin %.3f",
			r.Victim.CongestedFraction, r.Twin.CongestedFraction)
	}
	// The victim's freezes back requests up the chain, so the raw ranking
	// may flag upstream tiers too; root-cause attribution must single out
	// the victim.
	if len(r.Verdicts) == 0 || r.Verdicts[0].Server != "mysql-1" {
		t.Errorf("root cause = %+v, want mysql-1 first", r.Verdicts)
	}
	// The twin's verdicts score below the victim's, and the freeze
	// signature (POIs) appears only at the victim.
	for _, v := range r.Verdicts {
		if v.Server == "mysql-2" && v.Score >= r.Verdicts[0].Score {
			t.Errorf("twin score %.3f not below victim %.3f", v.Score, r.Verdicts[0].Score)
		}
	}
	if len(r.Victim.POIs) == 0 {
		t.Error("victim shows no freeze intervals despite the CPU hog")
	}
	if len(r.Twin.POIs) != 0 {
		t.Errorf("twin shows %d freeze intervals, want 0", len(r.Twin.POIs))
	}
	// The coarse view shows the victim hotter but NOT saturated — the
	// §II-B trap again.
	if r.VictimUtil <= r.TwinUtil {
		t.Errorf("victim util %.3f not above twin %.3f", r.VictimUtil, r.TwinUtil)
	}
	if r.VictimUtil > 0.98 {
		t.Errorf("victim util %.3f saturated; the hog should be transient", r.VictimUtil)
	}
}

func TestAutoIntervalPicksSubSecond(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := AutoInterval(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// The paper chose 50ms by hand after the Fig 8 study; the automatic
	// scorer must land in the same fine-grained region.
	if r.Chosen < 10*simnet.Millisecond || r.Chosen > 200*simnet.Millisecond {
		t.Errorf("chosen interval = %v, want 10-200ms (the paper's hand-picked 50ms region)",
			simnet.Std(r.Chosen))
	}
	// The 1s candidate must score below the winner.
	var oneSec, best float64
	for _, c := range r.Table {
		if c.Interval == simnet.Second {
			oneSec = c.Score
		}
		if c.Score > best {
			best = c.Score
		}
	}
	if oneSec >= best {
		t.Errorf("1s score %.3f not below best %.3f", oneSec, best)
	}
}
