package trace

import (
	"sort"
	"strings"

	"transientbd/internal/simnet"
)

// CallGraphBuilder's table of open transactions is direct-mapped: a
// transaction lives in slot TxnID mod graphSlots until another one
// arrives there, and one with more than graphSlotVisits visits is ignored
// from then on. The table is 2 048 × 16 × 24 B ≈ 0.8 MB and holds no
// pointers, so the garbage collector never scans it.
const graphSlots, graphSlotVisits = 2048, 16

// CallGraphBuilder derives the caller → callees server map from completed
// visits, one at a time, in bounded memory. A visit's caller is the
// tightest visit of the same transaction (TxnID ≠ 0), on another server,
// that encloses it. Add finds an edge whichever of its two visits comes
// second, so the graph is exact for visits in arrival order or in
// completion order. Eviction and overflow drop a transaction's visits
// whole, so they lose edges but never invent one; a lost intermediate
// visit yields the skip edge its data implies. The zero value is ready
// to use; a builder is not safe for concurrent use.
type CallGraphBuilder struct {
	slots *[graphSlots]txnSlot
	ids   map[string]int32 // server name → index in names
	names []string
	edges map[uint64]bool // caller index << 32 | callee index
	seen  [64]uint64      // edges among the first 64 servers, as bits
}

// txnSlot holds an open transaction's visits; n is -1 once it overflowed.
type txnSlot struct {
	txn    int64
	n      int
	visits [graphSlotVisits]openVisit
}

// openVisit is one visit of an open transaction; claimed marks one whose
// caller is known.
type openVisit struct {
	arrive, depart simnet.Time
	server         int32
	claimed        bool
}

// Add observes one completed visit. A visit with TxnID 0 carries no
// linkage and is ignored.
func (b *CallGraphBuilder) Add(v Visit) {
	if v.TxnID == 0 {
		return
	}
	if b.slots == nil {
		b.slots = new([graphSlots]txnSlot)
	}
	s := &b.slots[uint64(v.TxnID)%graphSlots]
	if s.txn != v.TxnID {
		s.txn, s.n = v.TxnID, 0
	}
	if s.n < 0 || s.n == graphSlotVisits {
		s.n = -1
		return
	}
	id := b.id(v.Server)
	caller := -1
	for i := range s.visits[:s.n] {
		o := &s.visits[i]
		switch {
		case o.server == id:
		case o.arrive <= v.Arrive && v.Depart <= o.depart:
			if caller < 0 || o.depart-o.arrive < s.visits[caller].depart-s.visits[caller].arrive {
				caller = i
			}
		case !o.claimed && v.Arrive <= o.arrive && o.depart <= v.Depart:
			b.addEdge(id, o.server)
			o.claimed = true
		}
	}
	if caller >= 0 {
		b.addEdge(s.visits[caller].server, id)
	}
	s.visits[s.n] = openVisit{v.Arrive, v.Depart, id, caller >= 0}
	s.n++
}

// id interns a server name, cloned so the builder does not pin the buffer
// a decoder sliced it from. The first few names are found by a scan,
// which for a decoder's interned strings costs a pointer compare each.
func (b *CallGraphBuilder) id(name string) int32 {
	for i, n := range b.names[:min(len(b.names), 8)] {
		if n == name {
			return int32(i)
		}
	}
	id, ok := b.ids[name]
	if !ok {
		if b.ids == nil {
			b.ids = make(map[string]int32)
		}
		id = int32(len(b.names))
		b.names = append(b.names, strings.Clone(name))
		b.ids[b.names[id]] = id
	}
	return id
}

func (b *CallGraphBuilder) addEdge(from, to int32) {
	if from < 64 && to < 64 {
		if b.seen[from]&(1<<to) != 0 {
			return
		}
		b.seen[from] |= 1 << to
	}
	if b.edges == nil {
		b.edges = make(map[uint64]bool)
	}
	b.edges[uint64(from)<<32|uint64(to)] = true
}

// AddEdges merges a caller → callees map, such as a checkpoint's, into
// the edges found.
func (b *CallGraphBuilder) AddEdges(g map[string][]string) {
	for from, tos := range g {
		for _, to := range tos {
			b.addEdge(b.id(from), b.id(to))
		}
	}
}

// Graph returns the edges found so far as a new caller → callees map,
// each callee list sorted; nil when there are none.
func (b *CallGraphBuilder) Graph() map[string][]string {
	if len(b.edges) == 0 {
		return nil
	}
	out := make(map[string][]string)
	for e := range b.edges {
		from := b.names[e>>32]
		out[from] = append(out[from], b.names[uint32(e)])
	}
	for _, tos := range out {
		sort.Strings(tos)
	}
	return out
}
