package experiments

import (
	"testing"

	"transientbd/internal/ntier"
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
