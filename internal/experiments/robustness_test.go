package experiments

import (
	"strings"
	"testing"
)

func TestRobustnessGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Robustness(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineTop == "" {
		t.Fatal("no baseline ranking")
	}
	if len(r.Rows) < 6 {
		t.Fatalf("only %d conditions swept", len(r.Rows))
	}
	byLabel := make(map[string]RobustnessRow, len(r.Rows))
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	// The headline claim: the root-cause verdict is stable up to 5%
	// uniform loss, and under duplication and repaired skew.
	for _, label := range []string{"1% loss", "2% loss", "5% loss", "5% duplication", "skew mysql-1 -5ms"} {
		row, ok := byLabel[label]
		if !ok {
			t.Fatalf("condition %q missing", label)
		}
		if !row.RankStable {
			t.Errorf("%s: top server %s, baseline %s", label, row.Top, r.BaselineTop)
		}
	}
	// Loss must actually have been injected and survived.
	if row := byLabel["5% loss"]; row.Faults.Dropped == 0 {
		t.Error("5% loss dropped nothing")
	} else if row.Coverage >= 1 || row.Coverage < 0.8 {
		t.Errorf("5%% loss coverage = %.3f, want in [0.8, 1)", row.Coverage)
	}
	// The table must render every condition.
	rendered := r.Table().String()
	for _, row := range r.Rows {
		if !strings.Contains(rendered, row.Label) {
			t.Errorf("table missing condition %q:\n%s", row.Label, rendered)
		}
	}
}
