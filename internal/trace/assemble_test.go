package trace

import (
	"strings"
	"testing"

	"transientbd/internal/simnet"
)

const ms = simnet.Millisecond

// buildFig4Trace emulates the paper's Fig 4: a client transaction through
// Apache → Tomcat → MySQL with two DB calls from Tomcat.
//
//  1. client → apache   call   t=0
//  3. apache → tomcat   call   t=2ms
//  5. tomcat → mysql    call   t=4ms   (query A)
//  7. mysql  → tomcat   return t=6ms
//  9. tomcat → mysql    call   t=8ms   (query B)
//  11. mysql → tomcat   return t=10ms
//  13. tomcat→ apache   return t=12ms
//  15. apache→ client   return t=14ms
func buildFig4Trace() []Message {
	return []Message{
		{At: 0, From: "client", To: "apache", Dir: Call, Class: "page", TxnID: 1, HopID: 1, ParentHop: 0},
		{At: 2 * ms, From: "apache", To: "tomcat", Dir: Call, Class: "page", TxnID: 1, HopID: 2, ParentHop: 1},
		{At: 4 * ms, From: "tomcat", To: "mysql", Dir: Call, Class: "qA", TxnID: 1, HopID: 3, ParentHop: 2},
		{At: 6 * ms, From: "mysql", To: "tomcat", Dir: Return, Class: "qA", TxnID: 1, HopID: 3},
		{At: 8 * ms, From: "tomcat", To: "mysql", Dir: Call, Class: "qB", TxnID: 1, HopID: 4, ParentHop: 2},
		{At: 10 * ms, From: "mysql", To: "tomcat", Dir: Return, Class: "qB", TxnID: 1, HopID: 4},
		{At: 12 * ms, From: "tomcat", To: "apache", Dir: Return, Class: "page", TxnID: 1, HopID: 2},
		{At: 14 * ms, From: "apache", To: "client", Dir: Return, Class: "page", TxnID: 1, HopID: 1},
	}
}

func TestAssembleFig4(t *testing.T) {
	visits, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 4 {
		t.Fatalf("visits = %d, want 4 (apache, tomcat, 2×mysql)", len(visits))
	}
	byServer := PerServer(visits)

	ap := byServer["apache"]
	if len(ap) != 1 {
		t.Fatalf("apache visits = %d, want 1", len(ap))
	}
	if ap[0].Arrive != 0 || ap[0].Depart != 14*ms {
		t.Errorf("apache visit span = [%v,%v], want [0,14ms]", ap[0].Arrive, ap[0].Depart)
	}
	// Apache waited on Tomcat for [2ms,12ms] = 10ms.
	if ap[0].Downstream != 10*ms {
		t.Errorf("apache downstream = %v, want 10ms", ap[0].Downstream)
	}
	// Intra-node delay: 14 - 10 = 4ms.
	if ap[0].IntraNodeDelay() != 4*ms {
		t.Errorf("apache intra-node = %v, want 4ms", ap[0].IntraNodeDelay())
	}

	tc := byServer["tomcat"]
	if len(tc) != 1 {
		t.Fatalf("tomcat visits = %d, want 1", len(tc))
	}
	// Tomcat: resident [2,12] = 10ms, downstream 2+2 = 4ms, intra 6ms.
	if tc[0].Residence() != 10*ms || tc[0].Downstream != 4*ms || tc[0].IntraNodeDelay() != 6*ms {
		t.Errorf("tomcat visit = res %v down %v intra %v", tc[0].Residence(), tc[0].Downstream, tc[0].IntraNodeDelay())
	}

	my := byServer["mysql"]
	if len(my) != 2 {
		t.Fatalf("mysql visits = %d, want 2", len(my))
	}
	for _, v := range my {
		if v.Residence() != 2*ms || v.Downstream != 0 {
			t.Errorf("mysql visit = res %v down %v, want 2ms/0", v.Residence(), v.Downstream)
		}
	}
}

func TestAssembleDropsInFlight(t *testing.T) {
	msgs := buildFig4Trace()[:3] // capture ends mid-transaction
	visits, err := Assemble(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 0 {
		t.Errorf("in-flight visits = %d, want 0", len(visits))
	}
}

// Strict-mode failures must name the server involved, not just the hop
// id, so an operator can find the offending capture point.
func TestAssembleErrors(t *testing.T) {
	wantErr := func(t *testing.T, msgs []Message, server string) {
		t.Helper()
		_, err := Assemble(msgs)
		if err == nil {
			t.Fatal("want error")
		}
		if !strings.Contains(err.Error(), `"`+server+`"`) {
			t.Errorf("error %q does not name server %q", err, server)
		}
	}
	dup := []Message{
		{At: 0, From: "a", To: "b", Dir: Call, HopID: 1},
		{At: 1, From: "a", To: "b", Dir: Call, HopID: 1},
	}
	wantErr(t, dup, "b")
	dupRet := []Message{
		{At: 0, From: "a", To: "b", Dir: Call, HopID: 1},
		{At: 1, From: "b", To: "a", Dir: Return, HopID: 1},
		{At: 2, From: "b", To: "a", Dir: Return, HopID: 1},
	}
	wantErr(t, dupRet, "b")
	orphan := []Message{
		{At: 1, From: "b", To: "a", Dir: Return, HopID: 9},
	}
	wantErr(t, orphan, "b")
	backwards := []Message{
		{At: 5, From: "a", To: "b", Dir: Call, HopID: 1},
		{At: 1, From: "b", To: "a", Dir: Return, HopID: 1},
	}
	wantErr(t, backwards, "b")
	invalid := []Message{{At: 0, HopID: 1, Dir: Direction(9)}}
	if _, err := Assemble(invalid); err == nil {
		t.Error("want error for invalid direction")
	}
}

// TestAssembleErrorFirstSight pins which anomaly strict assembly reports
// when a capture holds several: the hop seen first in the capture.
func TestAssembleErrorFirstSight(t *testing.T) {
	msgs := []Message{
		{At: 1, From: "b", To: "a", Dir: Return, HopID: 9},
		{At: 5, From: "a", To: "c", Dir: Call, HopID: 1},
		{At: 1, From: "c", To: "a", Dir: Return, HopID: 1},
		{At: 2, From: "d", To: "a", Dir: Return, HopID: 7},
	}
	for range 20 {
		if _, err := Assemble(msgs); err == nil || !strings.Contains(err.Error(), "hop 9") {
			t.Fatalf("error %v, want the orphan return of hop 9, the first anomaly captured", err)
		}
		if _, err := Assemble(msgs[1:]); err == nil || !strings.Contains(err.Error(), "hop 1") {
			t.Fatalf("error %v, want the negative span of hop 1, the first anomaly captured", err)
		}
	}
}

// corruptFig4Trace is the Fig 4 trace plus one of every anomaly lenient
// assembly must quarantine.
func corruptFig4Trace() []Message {
	msgs := buildFig4Trace()
	return append(msgs,
		// Orphan return: its call was never captured.
		Message{At: 20 * ms, From: "mysql", To: "tomcat", Dir: Return, Class: "qC", HopID: 99},
		// Duplicated return for hop 3 (retransmission); later stamp loses.
		Message{At: 7 * ms, From: "mysql", To: "tomcat", Dir: Return, Class: "qA", TxnID: 1, HopID: 3},
		// Duplicated call for hop 2.
		Message{At: 3 * ms, From: "apache", To: "tomcat", Dir: Call, Class: "page", TxnID: 1, HopID: 2, ParentHop: 1},
		// Negative-span hop: returns before it is called.
		Message{At: 30 * ms, From: "tomcat", To: "mysql", Dir: Call, Class: "qD", TxnID: 2, HopID: 50},
		Message{At: 29 * ms, From: "mysql", To: "tomcat", Dir: Return, Class: "qD", TxnID: 2, HopID: 50},
		// Invalid direction.
		Message{At: 31 * ms, From: "x", To: "y", Dir: Direction(7), HopID: 60},
		// Unterminated calls: one fresh (in flight), one stale (timed out
		// under a 5ms watchdog; capture ends at 40ms).
		Message{At: 39 * ms, From: "tomcat", To: "mysql", Dir: Call, Class: "qE", TxnID: 3, HopID: 70},
		Message{At: 16 * ms, From: "tomcat", To: "mysql", Dir: Call, Class: "qF", TxnID: 3, HopID: 71},
		Message{At: 40 * ms, From: "client", To: "apache", Dir: Call, Class: "page", TxnID: 4, HopID: 80},
	)
}

func TestAssembleLenientQuarantines(t *testing.T) {
	msgs := corruptFig4Trace()
	// Strict mode must still fail loudly on this capture.
	if _, err := Assemble(msgs); err == nil {
		t.Fatal("strict Assemble accepted a corrupt capture")
	}
	visits, rep := AssembleLenient(msgs, AssembleOptions{InFlightTimeout: 5 * ms})
	if len(visits) != 4 {
		t.Fatalf("visits = %d, want the 4 clean Fig 4 visits", len(visits))
	}
	if rep.Visits != len(visits) {
		t.Errorf("rep.Visits = %d, want %d", rep.Visits, len(visits))
	}
	if rep.OrphanReturns != 1 || rep.DuplicateReturns != 1 || rep.DuplicateCalls != 1 ||
		rep.NegativeSpans != 1 || rep.InvalidDirection != 1 {
		t.Errorf("anomaly counts wrong: %+v", rep)
	}
	// Hops 39ms and 40ms are younger than the 5ms watchdog at capture end
	// (40ms); hop 71 (16ms) is stale.
	if rep.InFlight != 2 || rep.TimedOut != 1 {
		t.Errorf("in-flight/timed-out = %d/%d, want 2/1 (%+v)", rep.InFlight, rep.TimedOut, rep)
	}
	// The duplicates kept the earliest stamps, so the clean visits are
	// bit-identical to strict assembly of the clean capture.
	clean, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if visits[i] != clean[i] {
			t.Errorf("visit %d = %+v, want %+v", i, visits[i], clean[i])
		}
	}
}

func TestAssembleLenientWatchdogDisabled(t *testing.T) {
	msgs := corruptFig4Trace()
	_, rep := AssembleLenient(msgs, AssembleOptions{})
	if rep.TimedOut != 0 || rep.InFlight != 3 {
		t.Errorf("without watchdog in-flight/timed-out = %d/%d, want 3/0", rep.InFlight, rep.TimedOut)
	}
}

func TestAssembleLenientCleanTraceMatchesStrict(t *testing.T) {
	msgs := buildFig4Trace()
	strict, err := Assemble(msgs)
	if err != nil {
		t.Fatal(err)
	}
	lenient, rep := AssembleLenient(msgs, AssembleOptions{InFlightTimeout: ms})
	if rep.Quarantined() != 0 {
		t.Errorf("clean trace quarantined %d hops: %+v", rep.Quarantined(), rep)
	}
	if len(lenient) != len(strict) {
		t.Fatalf("lenient %d visits, strict %d", len(lenient), len(strict))
	}
	for i := range strict {
		if lenient[i] != strict[i] {
			t.Errorf("visit %d differs: %+v vs %+v", i, lenient[i], strict[i])
		}
	}
}

func TestAssembleOutOfOrderInput(t *testing.T) {
	msgs := buildFig4Trace()
	// Reverse the capture order; timestamps still define the truth.
	for i, j := 0, len(msgs)-1; i < j; i, j = i+1, j-1 {
		msgs[i], msgs[j] = msgs[j], msgs[i]
	}
	visits, err := Assemble(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 4 {
		t.Fatalf("visits = %d, want 4", len(visits))
	}
	// Sorted by arrival.
	for i := 1; i < len(visits); i++ {
		if visits[i].Arrive < visits[i-1].Arrive {
			t.Error("visits not sorted by arrival")
		}
	}
}

func TestTransactionsGrouping(t *testing.T) {
	msgs := buildFig4Trace()
	// Add a second transaction.
	msgs = append(msgs,
		Message{At: 20 * ms, From: "client", To: "apache", Dir: Call, Class: "page", TxnID: 2, HopID: 10},
		Message{At: 25 * ms, From: "apache", To: "client", Dir: Return, Class: "page", TxnID: 2, HopID: 10},
	)
	visits, err := Assemble(msgs)
	if err != nil {
		t.Fatal(err)
	}
	txns := Transactions(visits)
	if len(txns) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txns))
	}
	if len(txns[1]) != 4 || len(txns[2]) != 1 {
		t.Errorf("txn sizes = %d/%d, want 4/1", len(txns[1]), len(txns[2]))
	}
}

func TestFilter(t *testing.T) {
	visits, err := Assemble(buildFig4Trace())
	if err != nil {
		t.Fatal(err)
	}
	my := Filter(visits, "mysql")
	if len(my) != 2 {
		t.Errorf("Filter(mysql) = %d, want 2", len(my))
	}
	if len(Filter(visits, "nosuch")) != 0 {
		t.Error("Filter(nosuch) should be empty")
	}
}

func TestVisitIntraNodeNeverNegative(t *testing.T) {
	v := Visit{Arrive: 0, Depart: 5 * ms, Downstream: 9 * ms}
	if v.IntraNodeDelay() != 0 {
		t.Errorf("IntraNodeDelay = %v, want clamped 0", v.IntraNodeDelay())
	}
}

func TestCollectorRecordsAndCopies(t *testing.T) {
	c := NewCollector()
	if c.NextHopID() != 1 || c.NextHopID() != 2 {
		t.Error("NextHopID not sequential")
	}
	c.Record(Message{At: 1, HopID: 1, Dir: Call})
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	got := c.Messages()
	got[0].At = 99
	if c.Messages()[0].At != 1 {
		t.Error("Messages exposed internal state")
	}
}

func TestDirectionString(t *testing.T) {
	if Call.String() != "call" || Return.String() != "return" {
		t.Error("direction strings wrong")
	}
	if Direction(0).String() != "Direction(0)" {
		t.Error("unknown direction string wrong")
	}
}

func TestCallGraph(t *testing.T) {
	msgs := buildFig4Trace()
	g := CallGraph(msgs)
	if len(g["apache"]) != 1 || g["apache"][0] != "tomcat" {
		t.Errorf("apache calls %v, want [tomcat]", g["apache"])
	}
	if len(g["tomcat"]) != 1 || g["tomcat"][0] != "mysql" {
		t.Errorf("tomcat calls %v, want [mysql]", g["tomcat"])
	}
	// Client-originated edges are excluded.
	if _, ok := g["client"]; ok {
		t.Error("client must not appear as a caller")
	}
	// Leaves have no entry.
	if _, ok := g["mysql"]; ok {
		t.Error("mysql calls nothing; should be absent")
	}
}

func TestCallGraphDeduplicates(t *testing.T) {
	msgs := []Message{
		{At: 1, From: "a", To: "b", Dir: Call, HopID: 1},
		{At: 2, From: "a", To: "b", Dir: Call, HopID: 2},
		{At: 3, From: "b", To: "a", Dir: Return, HopID: 1},
	}
	g := CallGraph(msgs)
	if len(g["a"]) != 1 {
		t.Errorf("a calls %v, want deduplicated [b]", g["a"])
	}
}

// TestCompareDepartTotalOrder: CompareDepart returns 0 only for identical
// visits and is antisymmetric, so sorting and merging agree on ties.
func TestCompareDepartTotalOrder(t *testing.T) {
	base := Visit{Server: "tomcat-1", Class: "ViewStory", TxnID: 7, HopID: 3,
		Arrive: 10 * ms, Depart: 20 * ms, Downstream: 4 * ms}
	vs := []Visit{base}
	for _, edit := range []func(*Visit){
		func(v *Visit) { v.Depart++ },
		func(v *Visit) { v.Server = "tomcat-2" },
		func(v *Visit) { v.Arrive-- },
		func(v *Visit) { v.Class = "StoriesOfTheDay" },
		func(v *Visit) { v.TxnID++ },
		func(v *Visit) { v.HopID-- },
		func(v *Visit) { v.Downstream++ },
		func(v *Visit) { v.Downstream = 0 },
	} {
		v := base
		edit(&v)
		vs = append(vs, v)
	}
	for i, a := range vs {
		for j, b := range vs {
			ab, ba := CompareDepart(a, b), CompareDepart(b, a)
			if (ab == 0) != (a == b) {
				t.Errorf("CompareDepart(%d, %d) = %d for visits that are equal=%v", i, j, ab, a == b)
			}
			if ab != -ba {
				t.Errorf("CompareDepart not antisymmetric on (%d, %d): %d and %d", i, j, ab, ba)
			}
		}
	}
}
