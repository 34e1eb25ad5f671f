package merge

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/chaos"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// equivBatch is the batch size every arm of the equivalence matrix
// uses. Sequence numbers are positional, so arms only compare when
// they cut batches identically.
const equivBatch = 97

// jsonlFeed renders a feed to the JSONL form agents actually read, so
// the TCP arms exercise the full decode→frame→merge path.
func jsonlFeed(t *testing.T, vs []trace.Visit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteVisits(&buf, vs); err != nil {
		t.Fatalf("encode feed: %v", err)
	}
	return buf.Bytes()
}

// faultPlan configures one fault schedule on the proxy between agents
// and head.
type faultPlan struct {
	drop, dup, kill int64
	// killAllEvery additionally tears down every established
	// connection on a wall-clock cadence — torn sockets mid-stream, on
	// top of the frame faults.
	killAllEvery time.Duration
}

// runTCP runs one arm of the matrix over real TCP: a merge head, one
// agent per feed (optionally through a fault proxy), everything driven
// to clean completion. Returns the alert stream and final snapshot.
func runTCP(t *testing.T, feeds map[string][]trace.Visit, plan *faultPlan) ([]stream.Alert, *stream.Snapshot) {
	t.Helper()
	names := make([]string, 0, len(feeds))
	for n := range feeds {
		names = append(names, n)
	}
	sort.Strings(names)

	srv, err := NewServer(ServerConfig{
		Core: Config{
			Stream: stream.Config{
				Online: core.OnlineOptions{
					Options:         core.Options{Interval: 50 * simnet.Millisecond, ServiceTimes: testServiceTimes},
					WindowIntervals: 24000,
				},
			},
			FlushLag:    300 * simnet.Millisecond,
			ExpectNodes: names,
			// Far beyond the test's runtime: the no-loss schedules must
			// never degrade a node, or loss would be legitimate.
			HeartbeatTimeout: 5 * time.Minute,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	var alerts []stream.Alert
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for a := range srv.Alerts() {
			alerts = append(alerts, a)
		}
	}()

	target := addr
	var proxy *chaos.Proxy
	if plan != nil {
		proxy, err = chaos.NewProxy("127.0.0.1:0", addr)
		if err != nil {
			t.Fatalf("NewProxy: %v", err)
		}
		proxy.DropEvery = plan.drop
		proxy.DupEvery = plan.dup
		proxy.KillEvery = plan.kill
		defer proxy.Close()
		target = proxy.Addr()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	stopKiller := make(chan struct{})
	if plan != nil && plan.killAllEvery > 0 {
		go func() {
			tick := time.NewTicker(plan.killAllEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					proxy.KillAll()
				case <-stopKiller:
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for _, name := range names {
		feed := jsonlFeed(t, feeds[name])
		wg.Add(1)
		go func(name string, feed []byte) {
			defer wg.Done()
			_, err := agent.Run(ctx, bytes.NewReader(feed), agent.Config{
				Node:           name,
				Addr:           target,
				BatchSize:      equivBatch,
				Window:         8,
				HeartbeatEvery: 50 * time.Millisecond,
				IOTimeout:      500 * time.Millisecond,
				BackoffBase:    5 * time.Millisecond,
				BackoffMax:     50 * time.Millisecond,
			})
			errs <- err
		}(name, feed)
	}
	wg.Wait()
	close(stopKiller)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("agent: %v", err)
		}
	}
	select {
	case <-srv.Done():
	case <-time.After(time.Minute):
		t.Fatalf("merge head did not finish after every agent's goodbye")
	}
	snap := srv.Final()
	<-alertsDone
	// Every arm runTCP drives is a no-loss schedule: each record must be
	// ingested exactly once, whatever the fault plan did to the frames.
	var total int64
	for _, vs := range feeds {
		total += int64(len(vs))
	}
	if m := srv.Metrics(); m.Ingested != total {
		for _, ns := range srv.NodeStatuses() {
			t.Logf("node %q: delivered %d deduped %d dropped %d invalid %d lastSeq %d eof %v",
				ns.Node, ns.Delivered, ns.Deduped, ns.Dropped, ns.Invalid, ns.LastSeq, ns.EOF)
		}
		t.Fatalf("head ingested %d records, want %d", m.Ingested, total)
	}
	if plan != nil && plan.drop > 0 && proxy.Dropped() == 0 {
		t.Fatalf("fault plan injected no drops — schedule did not exercise anything")
	}
	return alerts, snap
}

// runCoreDegrade runs the partition+degrade+readmit schedule at the
// Core level with an injected clock, so degrade timing — and therefore
// the exact set of dropped records — is deterministic. The named
// victim delivers a prefix, goes silent past the heartbeat timeout
// while the other nodes finish, is degraded by the sweep, then returns
// and replays its stream. Returns the alert stream, snapshot, the
// victim's drop counter and the drops computed from the release point.
func runCoreDegrade(t *testing.T, feeds map[string][]trace.Visit, victim string) ([]stream.Alert, *stream.Snapshot, int64, int64) {
	t.Helper()
	clock := newTestClock()
	names := make([]string, 0, len(feeds))
	for n := range feeds {
		names = append(names, n)
	}
	sort.Strings(names)
	cfg := testConfig(clock, names...)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	alerts, wait := drainAlerts(c)
	for _, n := range names {
		c.Admit(n, 1)
	}

	vb := toBatches(feeds[victim], equivBatch)
	cut := (len(vb) + 3) / 4
	for i := 0; i < cut; i++ {
		if _, err := c.Batch(victim, uint64(i+1), vb[i]); err != nil {
			t.Fatalf("%s prefix batch %d: %v", victim, i+1, err)
		}
	}
	// The healthy nodes deliver everything, round-robin, with the wall
	// clock ticking so they stay live across the sweep.
	type cursor struct {
		node    string
		batches [][]trace.Visit
		next    int
	}
	var healthy []*cursor
	for _, n := range names {
		if n != victim {
			healthy = append(healthy, &cursor{node: n, batches: toBatches(feeds[n], equivBatch)})
		}
	}
	for {
		progressed := false
		for _, cu := range healthy {
			if cu.next >= len(cu.batches) {
				continue
			}
			clock.Advance(time.Millisecond)
			if _, err := c.Batch(cu.node, uint64(cu.next+1), cu.batches[cu.next]); err != nil {
				t.Fatalf("node %s batch %d: %v", cu.node, cu.next+1, err)
			}
			cu.next++
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Sweep: the victim has been silent past the timeout.
	clock.Advance(cfg.HeartbeatTimeout + time.Second)
	for _, cu := range healthy {
		if _, err := c.Heartbeat(cu.node); err != nil {
			t.Fatalf("heartbeat %s: %v", cu.node, err)
		}
	}
	if deg := c.Tick(); len(deg) != 1 || deg[0] != victim {
		t.Fatalf("Tick degraded %v, want [%s]", deg, victim)
	}
	released := c.obsMark

	// The victim returns and replays from its last acknowledged batch;
	// everything departing at or before the release point must drop,
	// with exact accounting.
	c.Admit(victim, 1)
	var expectDrops int64
	for i := cut; i < len(vb); i++ {
		for _, v := range vb[i] {
			if v.Depart <= released {
				expectDrops++
			}
		}
	}
	for i := cut; i < len(vb); i++ {
		if _, err := c.Batch(victim, uint64(i+1), vb[i]); err != nil {
			t.Fatalf("%s replay batch %d: %v", victim, i+1, err)
		}
	}

	for _, cu := range healthy {
		if err := c.EOF(cu.node, uint64(len(cu.batches))); err != nil {
			t.Fatalf("%s eof: %v", cu.node, err)
		}
	}
	if err := c.EOF(victim, uint64(len(vb))); err != nil {
		t.Fatalf("%s eof: %v", victim, err)
	}
	snap := c.Finish()
	wait()

	var dropped int64
	for _, st := range c.NodeStatuses() {
		if st.Node == victim {
			dropped = st.Dropped
		}
	}
	total := 0
	for _, f := range feeds {
		total += len(f)
	}
	if m := c.Metrics(); m.Ingested != int64(total)-dropped {
		t.Errorf("runtime ingested %d, want %d (total %d - dropped %d)", m.Ingested, int64(total)-dropped, total, dropped)
	}
	return *alerts, snap, dropped, expectDrops
}

// TestMergeEquivalence is the acceptance matrix for distributed
// ingestion: three workloads × {1 process, 3 agents} × fault schedules
// {none, disconnect+resume, partition+degrade+readmit}.
//
// The golden run for each workload is the single-agent, no-fault TCP
// pipeline. Every no-loss arm — any node count under none or
// disconnect+resume — must reproduce its alert stream and final
// snapshot field-for-field. The degrade arms run at the Core level
// with an injected wall clock (degrade timing, and therefore the exact
// drop set, must be deterministic to assert on): with one node the
// barrier simply waits, so the result is again field-identical; with
// three nodes the partitioned node's late records are dropped, and the
// drop counter must match the count computed from the release point
// exactly.
func TestMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP matrix is seconds-long; skipped under -short")
	}
	servers := []string{"web", "app", "db"}
	byNode := map[string]string{"web": "n1", "app": "n2", "db": "n3"}
	workloads := []struct {
		name string
		n    int
		seed int64
	}{
		{"uniform", 5000, 11},
		{"bursty", 6000, 23},
		{"tail", 4000, 47},
	}
	disconnect := &faultPlan{drop: 13, dup: 7, kill: 31, killAllEvery: 40 * time.Millisecond}

	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			all := chaos.Workload(servers, wl.n, wl.seed)
			solo := map[string][]trace.Visit{"solo": byDepart(all)}
			parts := partitionByServer(all, byNode)

			goldenAlerts, goldenSnap := runTCP(t, solo, nil)
			if len(goldenAlerts) == 0 {
				t.Fatalf("golden run raised no alerts — workload too tame to prove anything")
			}

			sameAsGolden := func(name string, alerts []stream.Alert, snap *stream.Snapshot) {
				t.Helper()
				if len(alerts) != len(goldenAlerts) {
					t.Fatalf("%s: alert count %d, golden %d", name, len(alerts), len(goldenAlerts))
				}
				for i := range alerts {
					if alerts[i] != goldenAlerts[i] {
						t.Fatalf("%s: alert %d differs: %+v vs golden %+v", name, i, alerts[i], goldenAlerts[i])
					}
				}
				compareSnapshots(t, goldenSnap, snap)
			}

			a3, s3 := runTCP(t, parts, nil)
			sameAsGolden("3agents/none", a3, s3)

			a1d, s1d := runTCP(t, solo, disconnect)
			sameAsGolden("1process/disconnect+resume", a1d, s1d)

			a3d, s3d := runTCP(t, parts, disconnect)
			sameAsGolden("3agents/disconnect+resume", a3d, s3d)

			// 1 process × degrade: with a single node there is nothing
			// else to advance the barrier, so a degrade loses nothing and
			// the result must still be field-identical.
			a1g, s1g, dropped, expect := runCoreDegrade(t, solo, "solo")
			if dropped != 0 || expect != 0 {
				t.Fatalf("single-node degrade dropped %d (expected-from-release-point %d), want 0", dropped, expect)
			}
			sameAsGolden("1process/degrade", a1g, s1g)

			// 3 agents × degrade: the partitioned node's backlog behind
			// the release point is dropped — exactly as much as the
			// release point says, no more, no less.
			_, _, dropped3, expect3 := runCoreDegrade(t, parts, "n3")
			if expect3 == 0 {
				t.Fatalf("degenerate degrade schedule: no records behind the release point")
			}
			if dropped3 != expect3 {
				t.Fatalf("3agents/degrade: dropped %d, want exactly %d", dropped3, expect3)
			}

			// Durability arms (one workload is enough to prove the
			// machinery; the schedules are workload-independent). All run
			// authenticated, so the shared-key handshake rides along with
			// every durability property.
			if wl.name != "uniform" {
				return
			}

			// Head down for the entire feed — far beyond 10× the send
			// window. The WAL absorbs the whole source on disk; once the
			// head returns, delivery is byte-identical to fault-free.
			ao, so, mo := runTCPDurable(t, solo, durableArm{window: 2, outage: true})
			sameAsGolden("1process/wal-outage", ao, so)
			if p := mo["solo"].WALSpillPeak; p < 20 {
				t.Errorf("solo outage: WALSpillPeak = %d, want ≥ 20 (10× the window of 2)", p)
			}
			a3o, s3o, m3o := runTCPDurable(t, parts, durableArm{window: 2, outage: true})
			sameAsGolden("3agents/wal-outage", a3o, s3o)
			for name, m := range m3o {
				if m.WALSpillPeak <= 2 {
					t.Errorf("%s outage: WALSpillPeak = %d, want > window", name, m.WALSpillPeak)
				}
			}

			// kill -9 mid-outage + restart: agents die with the feed on
			// disk; their replacements replay the log and the merged
			// stream is still identical to the fault-free golden.
			ak, sk, mk := runTCPDurable(t, parts, durableArm{window: 2, killRestart: true})
			sameAsGolden("3agents/kill9-restart", ak, sk)
			for name, m := range mk {
				if m.WALRecovered == 0 {
					t.Errorf("%s restart: WALRecovered = 0 (restart did not replay the log)", name)
				}
			}

			// Impostor peer: a wrong-key agent alongside the real ones is
			// rejected, counted, and leaves no trace in the result.
			ai, si, _ := runTCPDurable(t, parts, durableArm{window: 8, impostor: true})
			sameAsGolden("3agents/impostor", ai, si)
		})
	}
}
