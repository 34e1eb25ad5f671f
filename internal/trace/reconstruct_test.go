package trace

import (
	"testing"

	"transientbd/internal/simnet"
)

func TestReconstructSequentialIsExact(t *testing.T) {
	res := Reconstruct(buildFig4Trace())
	if res.PairedHops != 4 {
		t.Fatalf("PairedHops = %d, want 4", res.PairedHops)
	}
	if res.Accuracy() != 1.0 {
		t.Errorf("Accuracy = %v, want 1.0 for a sequential transaction", res.Accuracy())
	}
	if res.UnmatchedCalls != 0 {
		t.Errorf("UnmatchedCalls = %d, want 0", res.UnmatchedCalls)
	}
}

func TestReconstructOverlapSameClassSwaps(t *testing.T) {
	// Two same-class calls overlap and return out of order: FIFO matching
	// swaps them. Both pairs are produced; neither matches ground truth.
	msgs := []Message{
		{At: 0 * ms, From: "a", To: "b", Dir: Call, Class: "q", HopID: 1},
		{At: 1 * ms, From: "a", To: "b", Dir: Call, Class: "q", HopID: 2},
		{At: 2 * ms, From: "b", To: "a", Dir: Return, Class: "q", HopID: 2}, // 2 finishes first
		{At: 3 * ms, From: "b", To: "a", Dir: Return, Class: "q", HopID: 1},
	}
	res := Reconstruct(msgs)
	if res.PairedHops != 2 {
		t.Fatalf("PairedHops = %d, want 2", res.PairedHops)
	}
	if res.CorrectHops != 0 {
		t.Errorf("CorrectHops = %d, want 0 (both pairs swapped)", res.CorrectHops)
	}
}

func TestReconstructDistinguishesClasses(t *testing.T) {
	// Overlapping calls of *different* classes are matched per class, so
	// out-of-order completion across classes is still exact.
	msgs := []Message{
		{At: 0 * ms, From: "a", To: "b", Dir: Call, Class: "q1", HopID: 1},
		{At: 1 * ms, From: "a", To: "b", Dir: Call, Class: "q2", HopID: 2},
		{At: 2 * ms, From: "b", To: "a", Dir: Return, Class: "q2", HopID: 2},
		{At: 3 * ms, From: "b", To: "a", Dir: Return, Class: "q1", HopID: 1},
	}
	res := Reconstruct(msgs)
	if res.Accuracy() != 1.0 {
		t.Errorf("Accuracy = %v, want 1.0 with distinct classes", res.Accuracy())
	}
}

func TestReconstructUnmatched(t *testing.T) {
	msgs := []Message{
		{At: 0, From: "a", To: "b", Dir: Call, Class: "q", HopID: 1},
		// no return: in flight at capture end
		{At: 1, From: "b", To: "a", Dir: Return, Class: "zz", HopID: 9}, // orphan return
	}
	res := Reconstruct(msgs)
	if res.PairedHops != 0 {
		t.Errorf("PairedHops = %d, want 0", res.PairedHops)
	}
	if res.UnmatchedCalls != 1 {
		t.Errorf("UnmatchedCalls = %d, want 1", res.UnmatchedCalls)
	}
	if res.UnmatchedReturns != 1 {
		t.Errorf("UnmatchedReturns = %d, want 1", res.UnmatchedReturns)
	}
	if res.Accuracy() != 0 {
		t.Errorf("Accuracy with no pairs = %v, want 0", res.Accuracy())
	}
}

func TestReconstructVisitSpans(t *testing.T) {
	res := Reconstruct(buildFig4Trace())
	byServer := PerServer(res.Visits)
	tc := byServer["tomcat"]
	if len(tc) != 1 {
		t.Fatalf("tomcat visits = %d, want 1", len(tc))
	}
	if tc[0].Arrive != 2*ms || tc[0].Depart != 12*ms {
		t.Errorf("tomcat span = [%v,%v], want [2ms,12ms]", tc[0].Arrive, tc[0].Depart)
	}
}

// Under realistic interleaving, mis-pairings swap departures between
// near-simultaneous same-class requests; the per-server visit multiset is
// nearly preserved. This test builds heavy synthetic concurrency and
// verifies accuracy stays above the paper's 99% when requests of the same
// class rarely overlap, and that the visit count is always exact.
func TestReconstructAccuracyUnderConcurrency(t *testing.T) {
	rng := simnet.NewRNG(42)
	var msgs []Message
	classes := []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}
	hop := int64(0)
	const n = 5000
	var tm simnet.Time
	for i := 0; i < n; i++ {
		hop++
		tm += simnet.Duration(rng.Intn(2000)) * simnet.Microsecond
		ci := rng.Intn(len(classes))
		// Same-class requests share a characteristic duration (±10%), as
		// in real systems; that is what keeps completion order near-FIFO
		// within a class.
		base := 500 + 300*ci
		dur := simnet.Duration(float64(base)*(0.9+0.2*rng.Float64())) * simnet.Microsecond
		msgs = append(msgs,
			Message{At: tm, From: "tomcat", To: "mysql", Dir: Call, Class: classes[ci], HopID: hop},
			Message{At: tm + dur, From: "mysql", To: "tomcat", Dir: Return, Class: classes[ci], HopID: hop},
		)
	}
	res := Reconstruct(msgs)
	if res.PairedHops != n {
		t.Fatalf("PairedHops = %d, want %d", res.PairedHops, n)
	}
	if acc := res.Accuracy(); acc < 0.99 {
		t.Errorf("Accuracy = %.4f, want >= 0.99", acc)
	}
}
