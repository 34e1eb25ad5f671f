package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/chaos"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/wire"
)

// equivAuthKey is the shared key every durable equivalence arm runs
// under, so authentication rides along with every durability schedule.
var equivAuthKey = []byte("equivalence-shared-key")

// durableArm configures one durability schedule for runTCPDurable.
type durableArm struct {
	// window is the agents' in-memory send window (small, so outages
	// spill).
	window int
	// outage starts the proxy in Down (dead head) and brings it Up only
	// once every agent has drained its entire source into the WAL — an
	// outage far longer than the send window.
	outage bool
	// killRestart additionally kills every agent (context cancel — the
	// orderly moral equivalent of kill -9, since the WAL state on disk
	// is identical) mid-outage and restarts them against the healed
	// head.
	killRestart bool
	// impostor flings a wrong-key agent at the head alongside the real
	// ones; it must be rejected, counted, and contribute nothing.
	impostor bool
}

// runTCPDurable runs one durability arm over real TCP: authenticated
// WAL-backed agents through a Down/Up proxy, optionally killed and
// restarted mid-outage. Returns the alert stream, final snapshot, and
// per-agent metrics (from the final wave, for spill/recovery
// assertions).
func runTCPDurable(t *testing.T, feeds map[string][]trace.Visit, arm durableArm) ([]stream.Alert, *stream.Snapshot, map[string]agent.Metrics) {
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
			FlushLag:         300 * simnet.Millisecond,
			ExpectNodes:      names,
			HeartbeatTimeout: 5 * time.Minute,
		},
		AuthKey: equivAuthKey,
		Logf:    t.Logf,
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

	proxy, err := chaos.NewProxy("127.0.0.1:0", addr)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()
	target := proxy.Addr()
	if arm.outage || arm.killRestart {
		proxy.Down()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	walRoot := t.TempDir()
	var drained atomic.Int64
	allDrained := make(chan struct{})

	agentCfg := func(name string) agent.Config {
		return agent.Config{
			Node:           name,
			Addr:           target,
			BatchSize:      equivBatch,
			Window:         arm.window,
			HeartbeatEvery: 50 * time.Millisecond,
			IOTimeout:      500 * time.Millisecond,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     50 * time.Millisecond,
			WALDir:         filepath.Join(walRoot, name),
			WALNoSync:      true,
			AuthKey:        equivAuthKey,
		}
	}

	metrics := make(map[string]agent.Metrics)
	var mu sync.Mutex
	runWave := func(ctx context.Context, withDrain bool) map[string]error {
		var wg sync.WaitGroup
		errs := make(map[string]error)
		for _, name := range names {
			feed := jsonlFeed(t, feeds[name])
			cfg := agentCfg(name)
			if withDrain {
				cfg.OnSourceDrained = func() {
					if drained.Add(1) == int64(len(names)) {
						close(allDrained)
					}
				}
			}
			wg.Add(1)
			go func(name string, cfg agent.Config, feed []byte) {
				defer wg.Done()
				m, err := agent.Run(ctx, bytes.NewReader(feed), cfg)
				mu.Lock()
				metrics[name] = m
				errs[name] = err
				mu.Unlock()
			}(name, cfg, feed)
		}
		wg.Wait()
		return errs
	}

	var impostorDone chan struct{}
	if arm.impostor {
		impostorDone = make(chan struct{})
		go func() {
			defer close(impostorDone)
			cfg := agentCfg("impostor")
			cfg.WALDir = ""
			cfg.AuthKey = []byte("wrong-key-entirely")
			_, feed := feeds[names[0]], jsonlFeed(t, feeds[names[0]])
			_, err := agent.Run(ctx, bytes.NewReader(feed), cfg)
			if err == nil || !strings.Contains(err.Error(), "authentication") {
				t.Errorf("impostor agent: err = %v, want terminal auth failure", err)
			}
		}()
	}

	switch {
	case arm.killRestart:
		kctx, kill := context.WithCancel(ctx)
		go func() {
			<-allDrained
			kill()
		}()
		for name, err := range runWave(kctx, true) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("phase-1 agent %s: %v, want context.Canceled (killed mid-outage)", name, err)
			}
		}
		proxy.Up()
		for name, err := range runWave(ctx, false) {
			if err != nil {
				t.Fatalf("restarted agent %s: %v", name, err)
			}
		}
	case arm.outage:
		go func() {
			<-allDrained
			proxy.Up()
		}()
		for name, err := range runWave(ctx, true) {
			if err != nil {
				t.Fatalf("agent %s: %v", name, err)
			}
		}
	default:
		for name, err := range runWave(ctx, false) {
			if err != nil {
				t.Fatalf("agent %s: %v", name, err)
			}
		}
	}
	if impostorDone != nil {
		<-impostorDone
	}

	select {
	case <-srv.Done():
	case <-time.After(time.Minute):
		t.Fatalf("merge head did not finish after every agent's goodbye")
	}
	snap := srv.Final()
	<-alertsDone

	// Zero loss, exactly once: whatever the schedule did, every source
	// record is ingested and none dropped.
	var total int64
	for _, vs := range feeds {
		total += int64(len(vs))
	}
	if m := srv.Metrics(); m.Ingested != total {
		for _, ns := range srv.NodeStatuses() {
			t.Logf("node %q: delivered %d deduped %d dropped %d lastSeq %d eof %v",
				ns.Node, ns.Delivered, ns.Deduped, ns.Dropped, ns.LastSeq, ns.EOF)
		}
		t.Fatalf("head ingested %d records, want %d", m.Ingested, total)
	}
	for _, ns := range srv.NodeStatuses() {
		if ns.Dropped != 0 {
			t.Fatalf("node %q dropped %d records on a no-loss schedule", ns.Node, ns.Dropped)
		}
		if ns.Node == "impostor" {
			t.Fatalf("impostor acquired node state at the head")
		}
	}
	if arm.impostor && srv.AuthRejects() == 0 {
		t.Fatalf("impostor ran but the head counted no auth rejections")
	}
	return alerts, snap, metrics
}

// TestMergeServerAuth covers the head's half of the shared-key
// handshake at the unit level: the full authenticated round trip, the
// wrong-key rejection (counted, no node state), and the readable
// rejection of a pre-auth protocol peer.
func TestMergeServerAuth(t *testing.T) {
	key := []byte("unit-test-key")
	newAuthServer := func(t *testing.T, expect ...string) (*Server, string) {
		t.Helper()
		srv, err := NewServer(ServerConfig{
			Core: Config{
				Stream: stream.Config{
					Online: core.OnlineOptions{
						Options:         core.Options{Interval: 50 * simnet.Millisecond, ServiceTimes: testServiceTimes},
						WindowIntervals: 24000,
					},
				},
				FlushLag:         300 * simnet.Millisecond,
				ExpectNodes:      expect,
				HeartbeatTimeout: time.Minute,
			},
			AuthKey: key,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		return srv, addr
	}

	t.Run("authenticated round trip", func(t *testing.T) {
		srv, addr := newAuthServer(t, "n1")
		defer srv.Close()
		drain := make(chan struct{})
		go func() {
			defer close(drain)
			for range srv.Alerts() {
			}
		}()
		vs := chaos.Workload([]string{"web"}, 300, 3)
		var buf bytes.Buffer
		if err := writeFeed(&buf, byDepart(vs)); err != nil {
			t.Fatal(err)
		}
		_, err := agent.Run(context.Background(), &buf, agent.Config{
			Node: "n1", Addr: addr, BatchSize: 50, Window: 4,
			HeartbeatEvery: 50 * time.Millisecond, IOTimeout: time.Second,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			AuthKey: key,
		})
		if err != nil {
			t.Fatalf("agent.Run: %v", err)
		}
		<-srv.Done()
		if got := srv.Metrics().Ingested; got != int64(len(vs)) {
			t.Errorf("ingested %d, want %d", got, len(vs))
		}
		if srv.AuthRejects() != 0 {
			t.Errorf("AuthRejects = %d, want 0", srv.AuthRejects())
		}
		srv.Close()
		<-drain
	})

	t.Run("wrong key counted and stateless", func(t *testing.T) {
		srv, addr := newAuthServer(t, "n1")
		defer srv.Close()
		vs := chaos.Workload([]string{"web"}, 100, 5)
		var buf bytes.Buffer
		if err := writeFeed(&buf, byDepart(vs)); err != nil {
			t.Fatal(err)
		}
		_, err := agent.Run(context.Background(), &buf, agent.Config{
			Node: "n1", Addr: addr, BatchSize: 50, Window: 4,
			HeartbeatEvery: 50 * time.Millisecond, IOTimeout: time.Second,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			AuthKey: []byte("the-wrong-key"),
		})
		if err == nil || !strings.Contains(err.Error(), "authentication") {
			t.Fatalf("want auth failure, got %v", err)
		}
		// The head's session goroutine counts the reject asynchronously
		// with the agent's exit; give it a moment.
		deadline := time.Now().Add(5 * time.Second)
		for srv.AuthRejects() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if srv.AuthRejects() == 0 {
			t.Error("AuthRejects = 0 after a wrong-key handshake")
		}
		for _, ns := range srv.NodeStatuses() {
			if ns.Sessions != 0 || ns.Delivered != 0 {
				t.Errorf("node %q has session state (%d sessions, %d delivered) from a rejected peer", ns.Node, ns.Sessions, ns.Delivered)
			}
		}
	})

	t.Run("pre-auth protocol peer told why", func(t *testing.T) {
		srv, addr := newAuthServer(t)
		defer srv.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		w := wire.NewWriter(conn)
		if err := w.WriteHello(wire.Hello{Version: 1, Node: "old", FirstSeq: 1}); err == nil {
			err = w.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.NewReader(conn).Read()
		if err != nil || f.Type != wire.TypeError {
			t.Fatalf("want Error frame, got type %d err %v", f.Type, err)
		}
		if !strings.Contains(f.Error.Msg, "unauthenticated peer") {
			t.Errorf("rejection %q does not name the problem", f.Error.Msg)
		}
		if srv.AuthRejects() != 1 {
			t.Errorf("AuthRejects = %d, want 1", srv.AuthRejects())
		}

		// A version-2 agent (authenticated, but heartbeats that still carry
		// a departure horizon) is told which version the head speaks.
		conn2, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn2.Close()
		w2 := wire.NewWriter(conn2)
		if err := w2.WriteHello(wire.Hello{Version: 2, Node: "v2", FirstSeq: 1}); err == nil {
			err = w2.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err = wire.NewReader(conn2).Read()
		if err != nil || f.Type != wire.TypeError {
			t.Fatalf("want Error frame for a version-2 hello, got type %d err %v", f.Type, err)
		}
		if want := fmt.Sprintf("not supported (head speaks %d)", wire.Version); !strings.Contains(f.Error.Msg, want) {
			t.Errorf("rejection %q does not say %q", f.Error.Msg, want)
		}
	})
}

func writeFeed(buf *bytes.Buffer, vs []trace.Visit) error {
	return traceio.WriteVisits(buf, vs)
}
