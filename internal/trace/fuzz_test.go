package trace

import (
	"reflect"
	"slices"
	"testing"

	"transientbd/internal/simnet"
)

// fuzzMessages deterministically expands raw fuzz bytes into a message
// slice. Small value ranges on purpose: hop ids collide (duplicates),
// directions go invalid, parents dangle — the anomalies lenient assembly
// exists to survive.
func fuzzMessages(data []byte) []Message {
	const stride = 8
	names := []string{"client", "apache", "tomcat", "mysql"}
	var msgs []Message
	for i := 0; i+stride <= len(data) && len(msgs) < 512; i += stride {
		b := data[i : i+stride]
		at := int64(b[1])<<8 | int64(b[2])
		if b[3]&1 == 1 {
			at -= 1000 // some timestamps land before the epoch
		}
		msgs = append(msgs, Message{
			At:        simnet.Time(at),
			From:      names[int(b[4])%len(names)],
			To:        names[int(b[5])%len(names)],
			Dir:       Direction(b[0] % 4),
			Class:     "c" + string(rune('a'+b[6]%3)),
			TxnID:     int64(b[6] % 5),
			HopID:     int64(b[7]%32) + 1,
			ParentHop: int64(b[3] % 8),
		})
	}
	return msgs
}

// FuzzAssemble asserts lenient assembly's contract over arbitrary
// captures: no panic, every produced visit is causally sane, the report
// adds up, and — when the report says the capture was clean — strict
// assembly agrees exactly. RepairSkew must likewise never panic and
// never break a previously assemblable capture.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{1, 0, 10, 0, 0, 1, 0, 1, 2, 0, 20, 0, 1, 0, 0, 1})
	f.Add([]byte("arbitrary seed bytes for the corpus........"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := fuzzMessages(data)

		visits, rep := AssembleLenient(msgs, AssembleOptions{InFlightTimeout: 500})
		if rep.Visits != len(visits) {
			t.Fatalf("report says %d visits, got %d", rep.Visits, len(visits))
		}
		for _, v := range visits {
			if v.Depart < v.Arrive {
				t.Fatalf("lenient assembly emitted negative span: %+v", v)
			}
		}
		anomalies := rep.OrphanReturns + rep.DuplicateCalls + rep.DuplicateReturns +
			rep.InvalidDirection + rep.NegativeSpans
		if anomalies == 0 {
			strict, err := Assemble(msgs)
			if err != nil {
				t.Fatalf("report clean but strict assembly failed: %v (%+v)", err, rep)
			}
			if len(strict) != len(visits) {
				t.Fatalf("strict %d visits, lenient %d on a clean capture", len(strict), len(visits))
			}
			for i := range strict {
				if strict[i] != visits[i] {
					t.Fatalf("visit %d differs between strict and lenient on a clean capture", i)
				}
			}
		}

		repaired, srep := RepairSkew(msgs)
		if len(repaired) != len(msgs) {
			t.Fatalf("RepairSkew changed message count %d -> %d", len(msgs), len(repaired))
		}
		for name, off := range srep.Offsets {
			if off <= 0 {
				t.Fatalf("non-positive offset %v for %q", off, name)
			}
		}
		// The repaired capture must still assemble leniently without
		// panicking; on adversarial (non-uniform-skew) inputs the repair
		// makes no count guarantees, only causal-sanity ones.
		rv, _ := AssembleLenient(repaired, AssembleOptions{})
		for _, v := range rv {
			if v.Depart < v.Arrive {
				t.Fatalf("post-repair lenient assembly emitted negative span: %+v", v)
			}
		}
	})
}

// FuzzCallGraph drives CallGraphBuilder two ways. Arbitrary bytes become
// hostile visits (equal timestamps, zero-length and inverted spans,
// transactions colliding in one slot, more than graphSlotVisits visits in
// one transaction): the builder must not panic, and every edge must join
// two different servers of the input. The same bytes also shape a set of
// well-nested transactions (each a call tree whose children lie strictly
// inside their caller and apart from each other, on another server than
// the caller): fed in arrival order and in completion order, the builder
// must find exactly the trees' caller → callee edges.
func FuzzCallGraph(f *testing.F) {
	f.Add([]byte{1, 0, 10, 0, 0, 1, 0, 1, 2, 0, 20, 0, 1, 0, 0, 1})
	f.Add([]byte("arbitrary seed bytes for the corpus........"))
	f.Fuzz(func(t *testing.T, data []byte) {
		names := []string{"apache", "tomcat", "cjdbc", "mysql", "memcached"}
		var b CallGraphBuilder
		inInput := map[string]bool{}
		for i := 0; i+6 <= len(data) && i < 6*4096; i += 6 {
			d := data[i : i+6]
			v := Visit{
				Server: names[int(d[0])%len(names)],
				TxnID:  int64(d[1]%4) * graphSlots, // 0 (no linkage) or one shared slot
				Arrive: simnet.Time(d[2]) * 10,
				Depart: simnet.Time(d[3]) * 10,
			}
			if d[4]&1 == 1 {
				v.TxnID++
			}
			inInput[v.Server] = true
			b.Add(v)
		}
		for from, tos := range b.Graph() {
			for _, to := range tos {
				if from == to || !inInput[from] || !inInput[to] {
					t.Fatalf("edge %s → %s is not between two input servers", from, to)
				}
			}
		}

		visits, want := nestedTxns(data, names)
		if got := graphOf(visits, compareArrive); !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival order: %v, want %v", got, want)
		}
		if got := graphOf(visits, CompareDepart); !reflect.DeepEqual(got, want) {
			t.Fatalf("completion order: %v, want %v", got, want)
		}
	})
}

// nestedTxns expands fuzz bytes into well-nested transactions with
// distinct slots, each of at most graphSlotVisits visits, overlapping in
// time, and returns them with their call trees' server edges.
func nestedTxns(data []byte, names []string) ([]Visit, map[string][]string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := int(data[0])
		data = data[1:]
		return c
	}
	var visits []Visit
	edges := map[string]map[string]bool{}
	for txn := int64(1); len(data) > 0 && txn < 64; txn++ {
		n := 0
		var grow func(server int, lo, hi simnet.Time)
		grow = func(server int, lo, hi simnet.Time) {
			n++
			visits = append(visits, Visit{Server: names[server], TxnID: txn, HopID: int64(n), Arrive: lo, Depart: hi})
			kids := next() % 4
			w := (hi - lo) / simnet.Time(kids+1)
			for k := range kids {
				if n == graphSlotVisits || w < 4 {
					return
				}
				callee := (server + 1 + next()%(len(names)-1)) % len(names)
				if edges[names[server]] == nil {
					edges[names[server]] = map[string]bool{}
				}
				edges[names[server]][names[callee]] = true
				start := lo + simnet.Time(k)*w + w/2
				grow(callee, start+1, start+w-1)
			}
		}
		start := simnet.Time(txn) * 1000
		grow(next()%len(names), start, start+1<<20)
	}
	var want map[string][]string
	for from, tos := range edges {
		if want == nil {
			want = map[string][]string{}
		}
		for to := range tos {
			want[from] = append(want[from], to)
		}
		slices.Sort(want[from])
	}
	return visits, want
}
