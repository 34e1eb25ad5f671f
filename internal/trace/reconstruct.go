package trace

import (
	"slices"
	"sort"
)

// ReconstructionResult is the output of black-box trace reconstruction:
// the re-paired visits plus accuracy against ground truth.
type ReconstructionResult struct {
	Visits []Visit
	// PairedHops is the number of call/return pairs the reconstructor
	// produced.
	PairedHops int
	// CorrectHops is how many of those pairs match the ground-truth
	// pairing (same call and return message).
	CorrectHops int
	// UnmatchedCalls counts calls with no available return (in-flight at
	// capture end, or consumed by an earlier mis-pairing).
	UnmatchedCalls int
	// UnmatchedReturns counts returns dropped because their flow had no
	// outstanding call (the call was not captured, or an earlier
	// mis-pairing consumed it).
	UnmatchedReturns int
}

// Accuracy returns the fraction of produced pairs that match ground truth,
// the metric behind the paper's ">99% reconstruction accuracy" statement.
func (r ReconstructionResult) Accuracy() float64 {
	if r.PairedHops == 0 {
		return 0
	}
	return float64(r.CorrectHops) / float64(r.PairedHops)
}

// Reconstruct re-pairs call and return messages using only wire-observable
// fields (timestamp, endpoints, direction, class, TCP stream), in the
// manner of a black-box tracer like SysViz: for each (from, to, class,
// conn) flow it matches every return to the oldest outstanding call.
//
// When connection identities are present (Conn != 0) matching is exact for
// well-formed streams, since a synchronous RPC connection carries at most
// one outstanding call. Without them, FIFO matching per class is exact
// while at most one request of a class is outstanding between a pair of
// servers and degrades gracefully under concurrency: when two same-class
// requests overlap and complete out of order, their pairs swap. The visit
// *set* is still nearly right (the two visits exchange departure
// timestamps), which is why reconstruction accuracy stays high even under
// heavy load.
//
// Ground-truth fields on the input are used only to score accuracy, never
// to match.
func Reconstruct(msgs []Message) ReconstructionResult {
	ordered := make([]*Message, len(msgs))
	for i := range msgs {
		ordered[i] = &msgs[i]
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })

	type flowKey struct {
		from, to, class string
		conn            int64
	}
	outstanding := make(map[flowKey][]*Message)

	var res ReconstructionResult
	for _, m := range ordered {
		switch m.Dir {
		case Call:
			k := flowKey{m.From, m.To, m.Class, m.Conn}
			outstanding[k] = append(outstanding[k], m)
		case Return:
			// A return D→S closes a call S→D on the same stream.
			k := flowKey{m.To, m.From, m.Class, m.Conn}
			q := outstanding[k]
			if len(q) == 0 {
				res.UnmatchedReturns++
				continue
			}
			call := q[0]
			outstanding[k] = q[1:]
			res.PairedHops++
			if call.HopID == m.HopID {
				res.CorrectHops++
			}
			res.Visits = append(res.Visits, Visit{
				Server: call.To,
				Class:  call.Class,
				TxnID:  call.TxnID, // ground-truth label carried for scoring only
				HopID:  call.HopID,
				Arrive: call.At,
				Depart: m.At,
			})
		}
	}
	for _, q := range outstanding {
		res.UnmatchedCalls += len(q)
	}
	slices.SortFunc(res.Visits, compareArrive)
	return res
}
