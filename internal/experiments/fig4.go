package experiments

import (
	"fmt"
	"strings"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Fig4Result reproduces Figure 4 and the §II-C claim: black-box
// transaction-trace reconstruction from wire messages, with its accuracy
// against ground truth (the paper reports >99% for a 4-tier application
// under high concurrent workload).
type Fig4Result struct {
	// Accuracy is the fraction of correctly re-paired call/return hops.
	Accuracy float64
	// PairedHops and Messages describe the workload size.
	PairedHops int
	Messages   int
	// SampleTransaction renders one reconstructed transaction as the Fig 4
	// arrow diagram.
	SampleTransaction string
}

// Fig4 runs the standard system at a demanding workload and reconstructs
// its transaction traces black-box.
func Fig4(opts RunOpts) (*Fig4Result, error) {
	_, res, err := simulate(testbed(8000, opts))
	if err != nil {
		return nil, err
	}
	rec := trace.Reconstruct(res.Messages)
	out := &Fig4Result{
		Accuracy:   rec.Accuracy(),
		PairedHops: rec.PairedHops,
		Messages:   len(res.Messages),
	}

	// Render one complete mid-run transaction as the Fig 4 trace.
	visits, err := trace.Assemble(res.Messages)
	if err != nil {
		return nil, fmt.Errorf("fig4: assemble: %w", err)
	}
	if best := sampleTransaction(trace.Transactions(visits), res.WindowStart); best != nil {
		var b strings.Builder
		origin := best[0].Arrive
		fmt.Fprintf(&b, "transaction %d (%s):\n", best[0].TxnID, best[0].Class)
		for _, v := range best {
			fmt.Fprintf(&b, "  %7.3fms → %-9s (resident %6.3fms, intra-node %6.3fms)\n",
				(v.Arrive - origin).Millis(), v.Server,
				v.Residence().Millis(), v.IntraNodeDelay().Millis())
		}
		out.SampleTransaction = b.String()
	}
	return out, nil
}

// sampleTransaction picks the longest transaction of at least four visits
// that enters at apache after start, the smallest TxnID among equals, so
// the pick does not depend on map order.
func sampleTransaction(txns map[int64][]trace.Visit, start simnet.Time) []trace.Visit {
	var best []trace.Visit
	for _, vs := range txns {
		if len(vs) < 4 || vs[0].Server != "apache" || vs[0].Arrive <= start {
			continue
		}
		if best == nil || len(vs) > len(best) || (len(vs) == len(best) && vs[0].TxnID < best[0].TxnID) {
			best = vs
		}
	}
	return best
}

// Table renders the reconstruction summary.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:  "Figure 4 / §II-C: black-box transaction trace reconstruction",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow("wire messages", r.Messages)
	t.AddRow("paired hops", r.PairedHops)
	t.AddRow("reconstruction accuracy", fmt.Sprintf("%.3f%%", 100*r.Accuracy))
	return t
}
