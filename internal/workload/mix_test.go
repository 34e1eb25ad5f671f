package workload

import (
	"testing"

	"transientbd/internal/simnet"
)

func TestBrowseOnlyMixHas24Interactions(t *testing.T) {
	mix := BrowseOnlyMix()
	if len(mix) != 24 {
		t.Fatalf("mix size = %d, want 24 (paper §II-A)", len(mix))
	}
	seen := make(map[string]bool)
	for _, ix := range mix {
		if ix.Name == "" {
			t.Error("interaction with empty name")
		}
		if seen[ix.Name] {
			t.Errorf("duplicate interaction %q", ix.Name)
		}
		seen[ix.Name] = true
		if ix.Weight <= 0 {
			t.Errorf("%s: non-positive weight", ix.Name)
		}
		if len(ix.Queries) == 0 {
			t.Errorf("%s: no queries", ix.Name)
		}
		if ix.AllocBytes <= 0 || ix.PageBytes <= 0 {
			t.Errorf("%s: missing sizes", ix.Name)
		}
	}
}

func TestQueryTemplatesDistinctWithinInteraction(t *testing.T) {
	for _, ix := range BrowseOnlyMix() {
		seen := make(map[string]bool)
		for _, q := range ix.Queries {
			if seen[q.Template] {
				t.Errorf("%s: duplicate query template %q", ix.Name, q.Template)
			}
			seen[q.Template] = true
			if q.Work <= 0 {
				t.Errorf("%s/%s: non-positive work", ix.Name, q.Template)
			}
		}
	}
}

// Calibration targets from DESIGN.md: the weighted mix must put the app
// tier at ~80% and the DB tier at ~78% CPU at the paper's WL 8,000
// (≈1,080 pages/s over 4 cores each).
func TestBrowseOnlyMixCalibration(t *testing.T) {
	st := Stats(BrowseOnlyMix())
	if st.QueriesPerPage < 3.0 || st.QueriesPerPage > 4.5 {
		t.Errorf("queries/page = %.2f, want 3.0-4.5", st.QueriesPerPage)
	}
	dbPerQueryMs := float64(st.DBWorkPerQuery) / float64(simnet.Millisecond)
	if dbPerQueryMs < 0.6 || dbPerQueryMs > 1.0 {
		t.Errorf("DB work/query = %.3fms, want 0.6-1.0ms", dbPerQueryMs)
	}
	appMs := float64(st.AppWorkPerPage) / float64(simnet.Millisecond)
	if appMs < 2.6 || appMs > 3.4 {
		t.Errorf("app work/page = %.3fms, want 2.6-3.4ms", appMs)
	}
	dbMs := float64(st.DBWorkPerPage) / float64(simnet.Millisecond)
	// App tier must be the first to saturate (GC case study needs Tomcat
	// as the bottleneck tier at WL 14,000).
	if dbMs >= appMs {
		t.Errorf("DB work/page %.3fms >= app work/page %.3fms; app tier must saturate first", dbMs, appMs)
	}
	webMs := float64(st.WebWorkPerPage) / float64(simnet.Millisecond)
	if webMs < 0.3 || webMs > 1.0 {
		t.Errorf("web work/page = %.3fms, want 0.3-1.0ms", webMs)
	}
	clMs := float64(st.ClusterWorkPerPage) / float64(simnet.Millisecond)
	if clMs <= 0 || clMs > 1.2 {
		t.Errorf("cluster work/page = %.3fms, want (0,1.2]ms", clMs)
	}
}

func TestInteractionDerivedWork(t *testing.T) {
	ix := Interaction{
		AppPreWork:      1 * simnet.Millisecond,
		AppPerQueryWork: 2 * simnet.Millisecond,
		AppPostWork:     3 * simnet.Millisecond,
		Queries: []Query{
			{Template: "a", Work: 5 * simnet.Millisecond},
			{Template: "b", Work: 7 * simnet.Millisecond},
		},
	}
	if got := ix.AppWork(); got != 8*simnet.Millisecond {
		t.Errorf("AppWork = %v, want 8ms", got)
	}
	if got := ix.DBWork(); got != 12*simnet.Millisecond {
		t.Errorf("DBWork = %v, want 12ms", got)
	}
}

func TestStatsEmptyAndZeroWeight(t *testing.T) {
	if st := Stats(nil); st.QueriesPerPage != 0 {
		t.Error("empty mix stats should be zero")
	}
	mix := []Interaction{{Name: "x", Weight: 0, Queries: []Query{{Work: simnet.Millisecond}}}}
	if st := Stats(mix); st.QueriesPerPage != 0 {
		t.Error("zero-weight interactions must not contribute")
	}
}
