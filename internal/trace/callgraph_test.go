package trace

import (
	"reflect"
	"slices"
	"testing"

	"transientbd/internal/simnet"
)

// graphOf feeds visits to a fresh builder in the given order.
func graphOf(visits []Visit, order func(a, b Visit) int) map[string][]string {
	vs := slices.Clone(visits)
	slices.SortFunc(vs, order)
	var b CallGraphBuilder
	for _, v := range vs {
		b.Add(v)
	}
	return b.Graph()
}

// TestCallGraphBuilderMatchesMessages: on assembled captures the builder
// finds the message graph, in arrival and in completion order — the Fig 4
// transaction alone, and 20 000 overlapping copies of it, which share
// slots of the open-transaction table.
func TestCallGraphBuilderMatchesMessages(t *testing.T) {
	for name, msgs := range map[string][]Message{
		"fig4":        buildFig4Trace(),
		"overlapping": benchCapture(benchTxns, false),
	} {
		visits, err := Assemble(msgs)
		if err != nil {
			t.Fatal(err)
		}
		want := CallGraph(msgs)
		if got := graphOf(visits, compareArrive); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, arrival order: %v, want %v", name, got, want)
		}
		if got := graphOf(visits, CompareDepart); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, completion order: %v, want %v", name, got, want)
		}
	}
}

// TestCallGraphBuilderLosesOnly: eviction and overflow lose a
// transaction's observations but never invent an edge, a lost
// intermediate visit gives the skip edge its data implies, and visits
// without a transaction are ignored.
func TestCallGraphBuilderLosesOnly(t *testing.T) {
	fig4, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	withTxn := func(vs []Visit, txn int64) []Visit {
		out := slices.Clone(vs)
		for i := range out {
			out[i].TxnID = txn
		}
		return out
	}
	// Transactions 1 and 1+graphSlots share a slot; interleaved visit by
	// visit, each arrival evicts the other, so nothing is observed.
	a, b := withTxn(fig4, 1), withTxn(fig4, 1+graphSlots)
	var interleaved []Visit
	for i := range a {
		interleaved = append(interleaved, a[i], b[i])
	}
	var g CallGraphBuilder
	for _, v := range interleaved {
		g.Add(v)
	}
	if got := g.Graph(); got != nil {
		t.Errorf("colliding transactions: %v, want no edges", got)
	}
	// A transaction past graphSlotVisits visits is ignored from there on:
	// 17 mysql visits fill the slot before the tomcat visit that
	// encloses them arrives.
	var big []Visit
	for i := range graphSlotVisits + 1 {
		big = append(big, Visit{Server: "mysql", TxnID: 9, Arrive: 10 + simnet.Time(i)*ms, Depart: 11 + simnet.Time(i)*ms})
	}
	big = append(big, Visit{Server: "tomcat", TxnID: 9, Arrive: 0, Depart: 100 * ms})
	g = CallGraphBuilder{}
	for _, v := range big {
		g.Add(v)
	}
	if got := g.Graph(); got != nil {
		t.Errorf("overflowed transaction: %v, want no edges", got)
	}
	// Without its tomcat visit, the capture implies apache → mysql.
	lost := slices.DeleteFunc(slices.Clone(fig4), func(v Visit) bool { return v.Server == "tomcat" })
	want := map[string][]string{"apache": {"mysql"}}
	if got := graphOf(lost, CompareDepart); !reflect.DeepEqual(got, want) {
		t.Errorf("lost intermediate visit: %v, want %v", got, want)
	}
	if got := graphOf(withTxn(fig4, 0), compareArrive); got != nil {
		t.Errorf("visits without a transaction: %v, want no edges", got)
	}
}

// TestCallGraphBuilderAllocs: once its servers and edges are known, the
// builder allocates nothing per visit.
func TestCallGraphBuilderAllocs(t *testing.T) {
	visits, err := Assemble(benchCapture(benchTxns, false))
	if err != nil {
		t.Fatal(err)
	}
	var b CallGraphBuilder
	for _, v := range visits {
		b.Add(v)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, v := range visits {
			b.Add(v)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per pass of %d visits, want 0", allocs, len(visits))
	}
}

// TestCallGraphBuilderAddEdges: a restored edge set merges with the
// edges found afterwards.
func TestCallGraphBuilderAddEdges(t *testing.T) {
	var b CallGraphBuilder
	b.AddEdges(map[string][]string{"apache": {"tomcat"}, "lb": {"apache"}})
	fig4, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fig4 {
		b.Add(v)
	}
	want := map[string][]string{"apache": {"tomcat"}, "lb": {"apache"}, "tomcat": {"mysql"}}
	if got := b.Graph(); !reflect.DeepEqual(got, want) {
		t.Errorf("graph %v, want %v", got, want)
	}
}
