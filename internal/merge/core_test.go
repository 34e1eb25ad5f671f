package merge

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"transientbd/internal/chaos"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// testClock is an injectable wall clock the degrade tests advance by hand,
// so heartbeat-timeout behavior is deterministic instead of sleep-based.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testServiceTimes matches the chaos.Workload class mix, so streaming and
// batch paths normalize identically (the calibrated-table condition for
// bit-equivalence).
var testServiceTimes = core.ServiceTimes{
	"small": 2 * simnet.Millisecond,
	"mid":   4 * simnet.Millisecond,
	"big":   8 * simnet.Millisecond,
}

// testConfig is a merge head tuned for the unit tests: a window covering
// any test trace, calibrated normalization, and an injected clock.
func testConfig(clock *testClock, expect ...string) Config {
	return Config{
		Stream: stream.Config{
			Online: core.OnlineOptions{
				Options:         core.Options{Interval: 50 * simnet.Millisecond, ServiceTimes: testServiceTimes},
				WindowIntervals: 24000, // 20 min: covers every test trace
			},
		},
		FlushLag:         300 * simnet.Millisecond,
		ExpectNodes:      expect,
		HeartbeatTimeout: 5 * time.Second,
		Now:              clock.Now,
	}
}

// drainAlerts consumes a head's alert stream into a slice, returning a
// wait func that blocks until the channel closes.
func drainAlerts(c *Core) (*[]stream.Alert, func()) {
	var alerts []stream.Alert
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range c.Alerts() {
			alerts = append(alerts, a)
		}
	}()
	return &alerts, func() { <-done }
}

// byDepart sorts visits the way a per-host tracer delivers them.
func byDepart(vs []trace.Visit) []trace.Visit {
	out := append([]trace.Visit(nil), vs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Depart < out[j].Depart })
	return out
}

// partitionByServer splits a workload into per-node feeds, each node
// owning a disjoint server subset — the per-host capture shape.
func partitionByServer(vs []trace.Visit, nodes map[string]string) map[string][]trace.Visit {
	out := make(map[string][]trace.Visit)
	for _, v := range vs {
		n := nodes[v.Server]
		out[n] = append(out[n], v)
	}
	for n, f := range out {
		out[n] = byDepart(f)
	}
	return out
}

// toBatches slices a feed into sequence-numbered batches of size k.
func toBatches(feed []trace.Visit, k int) [][]trace.Visit {
	var batches [][]trace.Visit
	for len(feed) > 0 {
		n := k
		if n > len(feed) {
			n = len(feed)
		}
		batches = append(batches, feed[:n])
		feed = feed[n:]
	}
	return batches
}

func TestCoreDedupAndGap(t *testing.T) {
	clock := newTestClock()
	c, err := New(testConfig(clock, "n1"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, wait := drainAlerts(c)
	defer wait()
	defer c.Finish()

	vs := byDepart(chaos.Workload([]string{"a"}, 50, 1))
	batches := toBatches(vs, 10)

	if got := c.Admit("n1", 1); got != 0 {
		t.Fatalf("fresh node resume cursor = %d, want 0", got)
	}
	for i, b := range batches {
		ack, err := c.Batch("n1", uint64(i+1), b)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if ack != uint64(i+1) {
			t.Fatalf("batch %d acked %d", i+1, ack)
		}
	}
	// Retransmission: every batch again, must ack without re-applying.
	for i, b := range batches {
		ack, err := c.Batch("n1", uint64(i+1), b)
		if err != nil {
			t.Fatalf("retransmit %d: %v", i+1, err)
		}
		if ack != uint64(len(batches)) {
			t.Fatalf("retransmit %d acked %d, want %d", i+1, ack, len(batches))
		}
	}
	st := c.NodeStatuses()[0]
	if st.Delivered != int64(len(vs)) {
		t.Errorf("delivered %d, want %d", st.Delivered, len(vs))
	}
	if st.Deduped != int64(len(vs)) {
		t.Errorf("deduped %d, want %d (full retransmission)", st.Deduped, len(vs))
	}
	// A gap is a protocol error (the transport must close the connection).
	if _, err := c.Batch("n1", uint64(len(batches)+2), batches[0]); err == nil {
		t.Errorf("sequence gap accepted")
	}
	// A fresh head accepts a node's first batch past 1 only where the
	// handshake declared the ring begins (head restarted cold; the agent's
	// window starts at 17). One past the declared start means a batch was
	// lost in transit — accepting it would make the loss permanent.
	if got := c.Admit("n2", 17); got != 0 {
		t.Fatalf("unexpected resume cursor %d for new node", got)
	}
	if _, err := c.Batch("n2", 18, batches[0]); err == nil {
		t.Errorf("first batch at seq 18 accepted with declared ring start 17 (a lost batch would be skipped forever)")
	}
	if _, err := c.Batch("n2", 17, batches[0]); err != nil {
		t.Errorf("first batch at declared ring start 17 rejected: %v", err)
	}
}

func TestCoreBarrierWaitsForExpectedNodes(t *testing.T) {
	clock := newTestClock()
	c, err := New(testConfig(clock, "n1", "n2"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, wait := drainAlerts(c)
	defer wait()
	defer c.Finish()

	vs := byDepart(chaos.Workload([]string{"a"}, 200, 2))
	c.Admit("n1", 1)
	if _, err := c.Batch("n1", 1, vs); err != nil {
		t.Fatalf("batch: %v", err)
	}
	// n2 has not delivered anything: its watermark holds W at zero.
	if got := c.obsMark; got != 0 {
		t.Fatalf("release point %v advanced before every expected node delivered", got)
	}
	c.Admit("n2", 1)
	if _, err := c.Batch("n2", 1, byDepart(chaos.Workload([]string{"b"}, 200, 3))); err != nil {
		t.Fatalf("n2 batch: %v", err)
	}
	if got := c.obsMark; got == 0 {
		t.Fatalf("release point did not advance after both nodes delivered")
	}
}

func TestCoreDegradeReadmitDropAccounting(t *testing.T) {
	clock := newTestClock()
	cfg := testConfig(clock, "n1", "n2")
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, wait := drainAlerts(c)

	all := chaos.Workload([]string{"a", "b"}, 4000, 3)
	feeds := partitionByServer(all, map[string]string{"a": "n1", "b": "n2"})
	f1, f2 := feeds["n1"], feeds["n2"]
	c.Admit("n1", 1)
	c.Admit("n2", 1)

	// n2 delivers only a prefix, then goes silent (partitioned).
	cut := len(f2) / 4
	if _, err := c.Batch("n2", 1, f2[:cut]); err != nil {
		t.Fatalf("n2 prefix: %v", err)
	}
	// n1 delivers everything.
	for i, b := range toBatches(f1, 256) {
		clock.Advance(10 * time.Millisecond) // keeps n1 live across the sweep below
		if _, err := c.Batch("n1", uint64(i+1), b); err != nil {
			t.Fatalf("n1 batch %d: %v", i+1, err)
		}
	}
	finalN1 := uint64(len(toBatches(f1, 256)))

	// The barrier is wedged on n2's stale watermark.
	wedged := c.obsMark
	if wedged >= f1[len(f1)-1].Depart {
		t.Fatalf("barrier advanced past a silent node's watermark")
	}

	// Heartbeat-timeout sweep: n2 has been silent past the timeout (n1's
	// batches above kept its own lastFrame fresh).
	clock.Advance(cfg.HeartbeatTimeout + time.Second)
	if _, err := c.Heartbeat("n1"); err != nil {
		t.Fatalf("n1 heartbeat: %v", err)
	}
	deg := c.Tick()
	if len(deg) != 1 || deg[0] != "n2" {
		t.Fatalf("Tick degraded %v, want [n2]", deg)
	}
	// With n2 degraded the healthy node's watermark releases the barrier.
	released := c.obsMark
	if released <= wedged {
		t.Fatalf("degrade did not unwedge the barrier (released %v, wedged %v)", released, wedged)
	}

	// n2 returns and replays its stream from the last acked batch. Its
	// records behind the release point must drop — with exact accounting —
	// and the ones ahead of it must be applied.
	c.Admit("n2", 1)
	var expectDrops int64
	for _, v := range f2[cut:] {
		if v.Depart <= released {
			expectDrops++
		}
	}
	if expectDrops == 0 {
		t.Fatalf("degenerate schedule: no n2 records behind the release point")
	}
	for i, b := range toBatches(f2[cut:], 256) {
		if _, err := c.Batch("n2", uint64(i+2), b); err != nil {
			t.Fatalf("n2 replay batch %d: %v", i+2, err)
		}
	}
	finalN2 := uint64(len(toBatches(f2[cut:], 256)) + 1)

	var st NodeStatus
	for _, s := range c.NodeStatuses() {
		if s.Node == "n2" {
			st = s
		}
	}
	if st.Degraded {
		t.Errorf("n2 still degraded after re-admission")
	}
	if st.Dropped != expectDrops {
		t.Errorf("n2 dropped %d, want exactly %d (computed from the release point)", st.Dropped, expectDrops)
	}

	if err := c.EOF("n1", finalN1); err != nil {
		t.Fatalf("n1 eof: %v", err)
	}
	if c.Done() {
		t.Fatalf("Done before every node reached EOF")
	}
	if err := c.EOF("n2", finalN2); err != nil {
		t.Fatalf("n2 eof: %v", err)
	}
	if !c.Done() {
		t.Fatalf("Done false with every node at EOF")
	}
	c.Finish()
	wait()

	// Global accounting: everything not dropped was observed by the runtime.
	m := c.Metrics()
	want := int64(len(all)) - expectDrops
	if m.Ingested != want {
		t.Errorf("runtime ingested %d, want %d (total %d - dropped %d)",
			m.Ingested, want, len(all), expectDrops)
	}
}

// TestCoreNodeCountEquivalence: the same workload fed as one node or as
// three server-partitioned nodes must produce a field-identical alert
// stream and final snapshot — the node-barrier determinism the package
// comment promises (the full matrix lives in equivalence_test.go). The
// three-node feed is delivered under several schedules; none may show.
func TestCoreNodeCountEquivalence(t *testing.T) {
	all := chaos.Workload([]string{"a", "b", "c"}, 6000, 7)

	// leader, when set, delivers its whole feed before any other node's
	// first batch; the rest interleave round-robin so the barrier
	// advances in small steps with nodes at different depths. shuffle,
	// when set, permutes the visits inside each batch (batch order kept).
	run := func(t *testing.T, feeds map[string][]trace.Visit, leader string, shuffle *rand.Rand) ([]stream.Alert, *stream.Snapshot) {
		clock := newTestClock()
		names := make([]string, 0, len(feeds))
		for n := range feeds {
			names = append(names, n)
		}
		sort.Strings(names)
		c, err := New(testConfig(clock, names...))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		alerts, wait := drainAlerts(c)
		type cursor struct {
			node    string
			batches [][]trace.Visit
			next    int
		}
		var cur []*cursor
		for _, n := range names {
			c.Admit(n, 1)
			batches := toBatches(feeds[n], 97)
			if shuffle != nil {
				for i, b := range batches {
					b = append([]trace.Visit(nil), b...)
					shuffle.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
					batches[i] = b
				}
			}
			cur = append(cur, &cursor{node: n, batches: batches})
		}
		send := func(cu *cursor) {
			if _, err := c.Batch(cu.node, uint64(cu.next+1), cu.batches[cu.next]); err != nil {
				t.Fatalf("node %s batch %d: %v", cu.node, cu.next+1, err)
			}
			cu.next++
		}
		for _, cu := range cur {
			for cu.node == leader && cu.next < len(cu.batches) {
				send(cu)
			}
		}
		for {
			progressed := false
			for _, cu := range cur {
				if cu.next < len(cu.batches) {
					send(cu)
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		for _, cu := range cur {
			if err := c.EOF(cu.node, uint64(len(cu.batches))); err != nil {
				t.Fatalf("node %s eof: %v", cu.node, err)
			}
		}
		snap := c.Finish()
		wait()
		return *alerts, snap
	}

	oneAlerts, oneSnap := run(t, map[string][]trace.Visit{"solo": byDepart(all)}, "", nil)
	if len(oneAlerts) == 0 {
		t.Fatalf("no alerts from the single-node run")
	}
	three := func() map[string][]trace.Visit {
		return partitionByServer(all, map[string]string{"a": "n1", "b": "n2", "c": "n3"})
	}
	for _, tc := range []struct {
		name    string
		leader  string
		shuffle *rand.Rand
	}{
		{"round-robin", "", nil},
		{"leader", "n1", nil},
		{"shuffled-within-batch", "", rand.New(rand.NewSource(11))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			threeAlerts, threeSnap := run(t, three(), tc.leader, tc.shuffle)
			if len(oneAlerts) != len(threeAlerts) {
				t.Fatalf("alert count: 1 node %d, 3 nodes %d", len(oneAlerts), len(threeAlerts))
			}
			for i := range oneAlerts {
				if oneAlerts[i] != threeAlerts[i] {
					t.Fatalf("alert %d differs: 1 node %+v, 3 nodes %+v", i, oneAlerts[i], threeAlerts[i])
				}
			}
			compareSnapshots(t, oneSnap, threeSnap)
		})
	}
}

// compareSnapshots asserts two final snapshots agree field-for-field on
// every ranked server.
func compareSnapshots(t *testing.T, want, got *stream.Snapshot) {
	t.Helper()
	if len(want.Ranking) != len(got.Ranking) {
		t.Fatalf("ranking length %d vs %d", len(want.Ranking), len(got.Ranking))
	}
	for i := range want.Ranking {
		w, g := want.Ranking[i], got.Ranking[i]
		if w.Server != g.Server {
			t.Errorf("rank %d: %q vs %q", i, w.Server, g.Server)
			continue
		}
		if w.NStar.NStar != g.NStar.NStar || w.NStar.TPMax != g.NStar.TPMax ||
			w.CongestedFraction != g.CongestedFraction ||
			w.CongestedIntervals != g.CongestedIntervals {
			t.Errorf("%s: N*/congestion (%v, %v, %d) vs (%v, %v, %d)", w.Server,
				w.NStar.NStar, w.CongestedFraction, w.CongestedIntervals,
				g.NStar.NStar, g.CongestedFraction, g.CongestedIntervals)
		}
		if len(w.States) != len(g.States) {
			t.Errorf("%s: states length %d vs %d", w.Server, len(w.States), len(g.States))
			continue
		}
		for j := range w.States {
			if w.States[j] != g.States[j] {
				t.Errorf("%s: state[%d] %v vs %v", w.Server, j, w.States[j], g.States[j])
				break
			}
		}
	}
}

func TestCoreRejectsMisconfiguration(t *testing.T) {
	if _, err := New(Config{Stream: stream.Config{Resume: true}}); err == nil {
		t.Errorf("Stream.Resume accepted")
	}
	if _, err := New(Config{Stream: stream.Config{FlushLag: simnet.Second}}); err == nil {
		t.Errorf("Stream.FlushLag accepted")
	}
}

func TestCoreEOFSequenceMismatch(t *testing.T) {
	clock := newTestClock()
	c, err := New(testConfig(clock, "n1"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, wait := drainAlerts(c)
	defer wait()
	defer c.Finish()
	c.Admit("n1", 1)
	vs := byDepart(chaos.Workload([]string{"a"}, 20, 5))
	if _, err := c.Batch("n1", 1, vs); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := c.EOF("n1", 3); err == nil {
		t.Errorf("goodbye with unapplied batches accepted")
	}
	if err := c.EOF("n1", 1); err != nil {
		t.Errorf("correct goodbye rejected: %v", err)
	}
}
