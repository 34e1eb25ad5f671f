package trace

import (
	"cmp"
	"slices"
	"sort"

	"transientbd/internal/simnet"
)

// This file repairs cross-server clock skew in passive traces. Each
// server stamps the messages it *sends* with its own clock, so per-server
// clock offsets show up as causality violations between servers: a hop's
// return (stamped by the callee) precedes its call (stamped by the
// caller), or a child call (stamped by the callee) precedes the parent
// call that spawned it. Within one server all timestamps share a clock,
// so single-server quantities — a visit's residence, the gap between two
// visits at the same server — are skew-invariant; only cross-server
// comparisons break. The repair therefore shifts whole servers: it finds
// the smallest per-server offsets that restore causal order and adds each
// server's offset to every timestamp that server produced.
//
// The estimate is a lower bound: an offset is only observable past the
// minimum true latency it hides (a server whose clock is 5 ms behind and
// whose fastest observed hop genuinely took 1 ms looks like 4 ms of
// skew). That bias is at most the minimum residence over the constraint's
// hops, which under any real traffic is small — and causal order, which
// is what the analysis needs, is restored exactly.

// SkewReport describes detected clock skew and the applied repair.
type SkewReport struct {
	// Offsets are the per-server corrections, in microseconds, added to
	// every timestamp stamped by that server's clock. Only servers with a
	// nonzero correction appear.
	Offsets map[string]simnet.Duration
	// Violations counts the causality violations observed before repair
	// (negative hop spans, children preceding parents).
	Violations int
	// Shifted counts the messages or visits whose timestamps moved.
	Shifted int
}

// Repaired reports whether any offset was applied.
func (r SkewReport) Repaired() bool { return len(r.Offsets) > 0 }

// skewEdge is one ordered-pair constraint: offset(to) - offset(from)
// must be at least lb for causal order to hold.
type skewEdge struct {
	from, to string
	lb       simnet.Duration
}

// solveOffsets finds per-server offsets satisfying every edge constraint
// by longest-path relaxation. Unconstrained servers stay at zero, so a
// clean trace yields no offsets. The iteration order is sorted and the
// round count bounded by the node count, so the result is deterministic
// and a (physically impossible, but fuzzable) constraint cycle cannot
// spin forever.
func solveOffsets(edges []skewEdge) map[string]simnet.Duration {
	if len(edges) == 0 {
		return nil
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	nodes := make(map[string]bool)
	for _, e := range edges {
		nodes[e.from] = true
		nodes[e.to] = true
	}
	offsets := make(map[string]simnet.Duration, len(nodes))
	for round := 0; round <= len(nodes); round++ {
		changed := false
		for _, e := range edges {
			if need := offsets[e.from] + e.lb; offsets[e.to] < need {
				offsets[e.to] = need
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for name, off := range offsets {
		if off == 0 {
			delete(offsets, name)
		}
	}
	if len(offsets) == 0 {
		return nil
	}
	return offsets
}

// RepairSkew detects per-server clock skew in a wire capture from
// causality violations and returns a copy of the messages with the
// offending servers' clocks shifted forward just enough to restore
// causal order. Two constraint families feed the estimate, both keyed by
// the (caller, callee) pair:
//
//   - a hop's return (callee clock) must not precede its call (caller
//     clock);
//   - a child call (callee clock) must not precede the parent call
//     (caller clock) during whose service it was issued.
//
// A clean capture comes back unchanged (and shares no memory hazards:
// the returned slice is always a copy).
func RepairSkew(msgs []Message) ([]Message, SkewReport) {
	var rep SkewReport
	slot, pairs, _, _ := pairHops(msgs, false)

	// minDelta[(A,B)] is the smallest observed (callee-stamp − caller-
	// stamp) gap for the pair; negative means B's clock trails A's.
	type pairKey struct{ from, to string }
	minDelta := make(map[pairKey]simnet.Duration)
	observe := func(from, to string, delta simnet.Duration) {
		k := pairKey{from, to}
		if cur, ok := minDelta[k]; !ok || delta < cur {
			minDelta[k] = delta
		}
		if delta < 0 {
			rep.Violations++
		}
	}
	for _, p := range pairs {
		if p.call < 0 {
			continue
		}
		call := &msgs[p.call]
		if p.ret >= 0 {
			observe(call.From, call.To, msgs[p.ret].At-call.At)
		}
		if call.ParentHop == 0 {
			continue
		}
		if ps, ok := slot[call.ParentHop]; ok && pairs[ps].call >= 0 {
			parent := &msgs[pairs[ps].call]
			observe(parent.From, call.From, call.At-parent.At)
		}
	}

	var edges []skewEdge
	for k, d := range minDelta {
		if d < 0 && k.from != k.to {
			edges = append(edges, skewEdge{from: k.from, to: k.to, lb: -d})
		}
	}
	rep.Offsets = solveOffsets(edges)

	out := make([]Message, len(msgs))
	copy(out, msgs)
	if rep.Repaired() {
		for i := range out {
			if off, ok := rep.Offsets[out[i].From]; ok {
				out[i].At += off
				rep.Shifted++
			}
		}
	}
	return out, rep
}

// RepairVisitSkew detects and repairs per-server clock skew from visit
// records alone (no wire messages, no parent-hop links). Visits carry no
// caller/callee relation, but synchronous RPC nesting leaves one usable
// invariant per transaction: the entry visit — identifiable as the one
// with the longest residence, a skew-invariant quantity — must contain
// every other visit of its transaction. A visit that starts before its
// transaction's entry arrives, or ends after the entry departs, reveals
// the minimum offset between the two servers' clocks.
//
// This is necessarily weaker than RepairSkew (violations against inner
// visits are invisible without the call tree), but it restores causal
// order with respect to each transaction's entry, which is what keeps
// window and interval bookkeeping sane. Visits with TxnID 0 (unknown
// transaction) contribute no constraints but are still shifted if their
// server's offset is known.
//
// The repair shifts visits in place: the caller must own the slice. The
// one extra allocation is an index per visit, stably sorted by TxnID so
// each transaction's visits stay in input order.
func RepairVisitSkew(visits []Visit) SkewReport {
	var rep SkewReport

	order := make([]int, 0, len(visits))
	for i := range visits {
		if visits[i].TxnID != 0 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(visits[a].TxnID, visits[b].TxnID) })

	type pairKey struct{ from, to string }
	lbs := make(map[pairKey]simnet.Duration)
	need := func(from, to string, lb simnet.Duration) {
		if from == to || lb <= 0 {
			return
		}
		rep.Violations++
		k := pairKey{from, to}
		if lb > lbs[k] {
			lbs[k] = lb
		}
	}
	for len(order) > 0 {
		n := 1
		for n < len(order) && visits[order[n]].TxnID == visits[order[0]].TxnID {
			n++
		}
		idxs := order[:n]
		order = order[n:]
		if n < 2 {
			continue
		}
		entry := idxs[0]
		for _, i := range idxs[1:] {
			vi, ve := visits[i], visits[entry]
			if vi.Residence() > ve.Residence() ||
				(vi.Residence() == ve.Residence() && vi.HopID < ve.HopID) {
				entry = i
			}
		}
		e := visits[entry]
		for _, i := range idxs {
			if i == entry || visits[i].Server == e.Server {
				continue
			}
			v := visits[i]
			// Child starts before the entry's call arrived: the child's
			// clock is behind the entry server's.
			need(e.Server, v.Server, e.Arrive-v.Arrive)
			// Child ends after the entry departed: the child's clock is
			// ahead, which reads as the entry server being behind.
			need(v.Server, e.Server, v.Depart-e.Depart)
		}
	}

	edges := make([]skewEdge, 0, len(lbs))
	for k, lb := range lbs {
		edges = append(edges, skewEdge{from: k.from, to: k.to, lb: lb})
	}
	rep.Offsets = solveOffsets(edges)

	if rep.Repaired() {
		for i := range visits {
			if off, ok := rep.Offsets[visits[i].Server]; ok {
				visits[i].Arrive += off
				visits[i].Depart += off
				rep.Shifted++
			}
		}
	}
	return rep
}
