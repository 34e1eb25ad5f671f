package agent

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transientbd/internal/trace"
	"transientbd/internal/wal"
	"transientbd/internal/wire"
)

// TestAgentBackoffBoundedAndResets pins the reconnect backoff schedule
// with a fake clock: jitter may never push a sleep past BackoffMax, and
// a completed handshake resets the next sleep to base scale. Rand is
// pinned to its supremum (worst-case jitter) and Sleep only records, so
// the schedule is exact and the test is instant.
func TestAgentBackoffBoundedAndResets(t *testing.T) {
	// Session 0 (dial attempt 4): welcome, ack one batch, cut — enough
	// to count as a successful handshake. Session 1 (attempt 7): run to
	// clean completion.
	srv := newScriptedServer(t, func(sess int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
				if sess == 0 {
					w.Flush()
					return // hard cut after first ack
				}
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	})
	defer srv.close()

	var dials int
	var sleeps []time.Duration
	cfg := testCfg(srv.addr())
	cfg.BackoffBase = 100 * time.Millisecond
	cfg.BackoffMax = 500 * time.Millisecond
	cfg.Rand = func() float64 { return 1.0 } // worst-case jitter: 1.5×
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	cfg.Dial = func(addr string) (net.Conn, error) {
		dials++
		switch dials {
		case 4, 7:
			return net.Dial("tcp", addr)
		default:
			return nil, errors.New("synthetic dial failure")
		}
	}

	_, feed := testFeed(t, 95)
	if _, err := Run(context.Background(), bytes.NewReader(feed), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Three failures (150, 300, clamp 400×1.5→500), a successful session,
	// then the reset is visible: the very next sleep is back at 1.5×base.
	want := []time.Duration{
		150 * time.Millisecond,
		300 * time.Millisecond,
		500 * time.Millisecond, // 600 ms of jitter clamped at BackoffMax
		150 * time.Millisecond, // reset after the successful session
		300 * time.Millisecond,
		500 * time.Millisecond,
	}
	if len(sleeps) != len(want) {
		t.Fatalf("recorded sleeps %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v (full schedule %v)", i, sleeps[i], want[i], sleeps)
		}
	}
	for _, d := range sleeps {
		if d > cfg.BackoffMax {
			t.Fatalf("sleep %v exceeds BackoffMax %v", d, cfg.BackoffMax)
		}
	}
}

// ackingServer records every applied batch — its sequence and decoded
// records, in arrival order — and acks everything, echoing the Goodbye.
// Each session's resume cursor is the newest batch applied so far, or
// lastAcked if that is newer. When cutAt is non-zero, the first session
// closes on batch cutAt without applying it.
func ackingServer(t *testing.T, lastAcked, cutAt uint64, mu *sync.Mutex, applied *[]wire.Batch) func(int, net.Conn) {
	return func(sess int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		h := readHello(t, r)
		if h.Version != wire.Version {
			t.Errorf("hello version = %d, want %d", h.Version, wire.Version)
		}
		mu.Lock()
		resume := lastAcked
		if n := len(*applied); n > 0 {
			resume = max(resume, (*applied)[n-1].Seq)
		}
		mu.Unlock()
		w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: resume})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				if strings.HasPrefix(err.Error(), "wire: ") {
					t.Errorf("head read a malformed frame: %v", err)
				}
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				if sess == 0 && f.Batch.Seq == cutAt {
					return
				}
				mu.Lock()
				*applied = append(*applied, wire.Batch{Seq: f.Batch.Seq, Visits: slices.Clone(f.Batch.Visits)})
				mu.Unlock()
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// checkDelivered requires applied to be sequences from..to, once each
// and in order, each carrying exactly its positional cut of the source:
// batch k is records [(k-1)·size, k·size), short only at the end.
func checkDelivered(t *testing.T, applied []wire.Batch, vs []trace.Visit, size int, from, to uint64) {
	t.Helper()
	seqs := make([]uint64, len(applied))
	for i, b := range applied {
		seqs[i] = b.Seq
	}
	if len(applied) != int(to-from+1) {
		t.Fatalf("head applied %d batches %v, want exactly %d..%d", len(applied), seqs, from, to)
	}
	for i, b := range applied {
		if b.Seq != from+uint64(i) {
			t.Fatalf("out-of-order, duplicated or dropped delivery: %v, want %d..%d", seqs, from, to)
		}
		lo := int(b.Seq-1) * size
		want := vs[lo:min(lo+size, len(vs))]
		if !reflect.DeepEqual(b.Visits, want) {
			t.Errorf("sequence %d carries %d records, want records %d..%d of the source", b.Seq, len(b.Visits), lo, lo+len(want)-1)
		}
	}
}

// TestAgentWALSpillAbsorbsHeadOutage: the head is unreachable until the
// entire source — ten times the send window — has been read. Without a
// WAL the window would stall the read at Window batches; with one, the
// disk absorbs the rest, and once the head appears everything is
// delivered in order with nothing dropped. The no-WAL run is the control:
// its head comes back after a few failed dials while the full window
// holds the read, and it must deliver the same batches. In the cut run
// the head drops its first connection on batch 5, while the ring holds
// batches reloaded from disk, and they are sent again on the next one.
func TestAgentWALSpillAbsorbsHeadOutage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		withWAL bool
		cutAt   uint64
	}{
		{"wal", true, 0},
		{"no wal", false, 0},
		{"wal, head cut mid-drain", true, 5},
	} {
		withWAL := tc.withWAL
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var applied []wire.Batch
			srv := newScriptedServer(t, ackingServer(t, 0, tc.cutAt, &mu, &applied))
			defer srv.close()

			var drained atomic.Bool
			dials := 0
			cfg := testCfg(srv.addr())
			cfg.Window = 2
			if withWAL {
				cfg.WALDir = t.TempDir()
			}
			cfg.OnSourceDrained = func() { drained.Store(true) }
			cfg.Dial = func(addr string) (net.Conn, error) {
				dials++
				if withWAL && !drained.Load() || !withWAL && dials <= 3 {
					return nil, errors.New("head down")
				}
				return net.Dial("tcp", addr)
			}

			vs, feed := testFeed(t, 200) // 20 batches of 10 = 10× the window
			// A batch the head cannot read is resent on every reconnect:
			// bound the run so that shows as a failure, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m, err := Run(ctx, bytes.NewReader(feed), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			checkDelivered(t, applied, vs, cfg.BatchSize, 1, 20)
			if m.RecordsSent != int64(len(vs)) {
				t.Errorf("RecordsSent = %d, want %d", m.RecordsSent, len(vs))
			}
			if m.BatchesAcked != 20 {
				t.Errorf("BatchesAcked = %d, want 20", m.BatchesAcked)
			}
			if !withWAL {
				return
			}
			if m.WALAppended != 20 {
				t.Errorf("WALAppended = %d, want 20 (every batch durable)", m.WALAppended)
			}
			// Ring caches 2, the other 18 waited on disk.
			if m.WALSpillPeak != 18 {
				t.Errorf("WALSpillPeak = %d, want 18", m.WALSpillPeak)
			}
		})
	}
}

// TestAgentRestartReplaysWAL is the kill -9 property at the agent level:
// run 1 delivers three batches, spills the rest through an outage, and
// is killed mid-outage; run 2 (same WAL directory, fresh source re-read)
// replays the log from the head's resume cursor. The head must see every
// batch exactly once across both incarnations.
func TestAgentRestartReplaysWAL(t *testing.T) {
	walDir := t.TempDir()
	vs, feed := testFeed(t, 100) // 10 batches of 10

	// ---- Run 1: head acks 1..3 then vanishes; agent killed mid-outage.
	drainedCh := make(chan struct{})
	srv1 := newScriptedServer(t, func(sess int, conn net.Conn) {
		if sess > 0 {
			return // outage: connection cut before any handshake
		}
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			if f.Type == wire.TypeBatch {
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
				w.Flush()
				if f.Batch.Seq == 3 {
					return // head dies
				}
			}
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	cfg := testCfg(srv1.addr())
	cfg.Window = 2
	cfg.WALDir = walDir
	cfg.WALSegmentBytes = 128 // one batch per segment: exact truncation
	var drainOnce sync.Once
	cfg.OnSourceDrained = func() { drainOnce.Do(func() { close(drainedCh) }) }

	errCh := make(chan error, 1)
	var m1 Metrics
	go func() {
		var err error
		m1, err = Run(ctx, bytes.NewReader(feed), cfg)
		errCh <- err
	}()
	<-drainedCh // every batch is on disk (or acked) now
	cancel()    // kill -9
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("run 1 ended with %v, want context.Canceled", err)
	}
	srv1.close()
	if m1.WALAppended != 10 {
		t.Fatalf("run 1 WALAppended = %d, want 10", m1.WALAppended)
	}

	// ---- Run 2: head is back, remembers acks through 3.
	var mu sync.Mutex
	var applied []wire.Batch
	srv2 := newScriptedServer(t, ackingServer(t, 3, 0, &mu, &applied))
	defer srv2.close()

	cfg2 := cfg
	cfg2.Addr = srv2.addr()
	cfg2.OnSourceDrained = nil
	cfg2.Dial = nil
	m2, err := Run(context.Background(), bytes.NewReader(feed), cfg2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	checkDelivered(t, applied, vs, cfg.BatchSize, 4, 10)
	// Run 1's acks race the head's cut (a close with unread data RSTs
	// buffered acks away), so anywhere from zero to three truncations may
	// have landed — the head's resume cursor makes the leftovers moot.
	// What must hold: batches 4..10 survived on disk.
	if m2.WALRecovered < 7 || m2.WALRecovered > 10 {
		t.Errorf("WALRecovered = %d, want 7..10 (batches 4..10 must survive on disk)", m2.WALRecovered)
	}
	if m2.WALCovered != 100 {
		t.Errorf("WALCovered = %d, want 100 (every re-read record covered by the log)", m2.WALCovered)
	}
	if m2.RecordsSent != 70 {
		t.Errorf("RecordsSent = %d, want 70", m2.RecordsSent)
	}
}

// authServer speaks the version-2 challenge/response with key,
// rejecting bad MACs, then acks everything.
func authServer(t *testing.T, key []byte, badProof bool, mu *sync.Mutex, applied *[]uint64) func(int, net.Conn) {
	return func(_ int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		h := readHello(t, r)
		nh, err := wire.NewNonce()
		if err != nil {
			t.Errorf("nonce: %v", err)
			return
		}
		proof := wire.HeadProof(key, h.Nonce, nh)
		if badProof {
			proof[0] ^= 1
		}
		w.WriteChallenge(wire.Challenge{Nonce: nh, Proof: proof})
		w.Flush()
		f, err := r.Read()
		if err != nil || f.Type != wire.TypeAuth {
			return
		}
		if !wire.ProofEqual(f.Auth.MAC, wire.AgentProof(key, h.Node, h.Nonce, nh)) {
			w.WriteError(wire.ErrorFrame{Msg: "authentication failed"})
			w.Flush()
			return
		}
		w.WriteWelcome(wire.Welcome{Version: wire.Version})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				if mu != nil {
					mu.Lock()
					*applied = append(*applied, f.Batch.Seq)
					mu.Unlock()
				}
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func TestAgentAuthHandshake(t *testing.T) {
	key := []byte("shared-secret")

	t.Run("matched key completes", func(t *testing.T) {
		var mu sync.Mutex
		var applied []uint64
		srv := newScriptedServer(t, authServer(t, key, false, &mu, &applied))
		defer srv.close()
		cfg := testCfg(srv.addr())
		cfg.AuthKey = key
		vs, feed := testFeed(t, 95)
		m, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if m.RecordsSent != int64(len(vs)) {
			t.Errorf("RecordsSent = %d, want %d", m.RecordsSent, len(vs))
		}
		mu.Lock()
		defer mu.Unlock()
		if len(applied) != 10 {
			t.Errorf("applied %d batches, want 10", len(applied))
		}
	})

	t.Run("wrong agent key rejected terminally", func(t *testing.T) {
		srv := newScriptedServer(t, authServer(t, key, false, nil, nil))
		defer srv.close()
		cfg := testCfg(srv.addr())
		cfg.AuthKey = []byte("not-the-secret")
		_, feed := testFeed(t, 30)
		_, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		// The agent detects the mismatch itself (the head's proof fails
		// verification) — terminal either way, no retry storm.
		if err == nil || !strings.Contains(err.Error(), "authentication") {
			t.Fatalf("want terminal auth error, got %v", err)
		}
	})

	t.Run("keyless agent told to configure one", func(t *testing.T) {
		srv := newScriptedServer(t, authServer(t, key, false, nil, nil))
		defer srv.close()
		cfg := testCfg(srv.addr())
		_, feed := testFeed(t, 30)
		_, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err == nil || !strings.Contains(err.Error(), "no shared key") {
			t.Fatalf("want missing-key error, got %v", err)
		}
	})

	t.Run("head with bad proof rejected by agent", func(t *testing.T) {
		srv := newScriptedServer(t, authServer(t, key, true, nil, nil))
		defer srv.close()
		cfg := testCfg(srv.addr())
		cfg.AuthKey = key
		_, feed := testFeed(t, 30)
		_, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err == nil || !strings.Contains(err.Error(), "mutual authentication") {
			t.Fatalf("want mutual-auth failure, got %v", err)
		}
	})

	t.Run("keyed agent refuses unauthenticated head", func(t *testing.T) {
		srv := newScriptedServer(t, func(_ int, conn net.Conn) {
			r, w := wire.NewReader(conn), wire.NewWriter(conn)
			readHello(t, r)
			w.WriteWelcome(wire.Welcome{Version: wire.Version}) // no challenge
			w.Flush()
		})
		defer srv.close()
		cfg := testCfg(srv.addr())
		cfg.AuthKey = key
		_, feed := testFeed(t, 30)
		_, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err == nil || !strings.Contains(err.Error(), "did not authenticate") {
			t.Fatalf("want downgrade refusal, got %v", err)
		}
	})
}

// TestAgentWALDirUnusableFailsFast: a WAL path that cannot hold a log
// (it is a file) fails the run before any dial.
func TestAgentWALDirUnusableFailsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg("127.0.0.1:1") // never dialed
	cfg.WALDir = path
	cfg.Dial = func(string) (net.Conn, error) {
		t.Error("dialed despite unusable WAL dir")
		return nil, fmt.Errorf("no")
	}
	_, feed := testFeed(t, 30)
	if _, err := Run(context.Background(), bytes.NewReader(feed), cfg); err == nil {
		t.Fatal("Run succeeded with a file as WAL dir")
	}
}

// spillAll runs an agent cutting batches of size into walDir through a
// head outage that outlasts the source, and kills it once every batch
// is on disk.
func spillAll(t *testing.T, walDir string, feed []byte, size int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testCfg("127.0.0.1:1") // never reached
	cfg.BatchSize = size
	cfg.WALDir = walDir
	cfg.Dial = func(string) (net.Conn, error) { return nil, errors.New("head down") }
	cfg.OnSourceDrained = cancel
	if _, err := Run(ctx, bytes.NewReader(feed), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("spill run ended with %v, want context.Canceled", err)
	}
}

// TestAgentWALRefusesOtherBatchSize: sequence numbers are positional, so
// a WAL cut at one batch size cannot be replayed by an agent cutting at
// another — its records would cover the wrong positions of the re-read
// source. The restart must fail naming both sizes before it sends
// anything. The same size restarts fine, short final cut included.
func TestAgentWALRefusesOtherBatchSize(t *testing.T) {
	vs, feed := testFeed(t, 95) // 9 batches of 10 and one of 5

	t.Run("other size refused", func(t *testing.T) {
		walDir := t.TempDir()
		spillAll(t, walDir, feed, 10)
		cfg := testCfg("127.0.0.1:1")
		cfg.BatchSize = 20
		cfg.WALDir = walDir
		cfg.Dial = func(string) (net.Conn, error) {
			t.Error("dialed the head with a WAL cut at another batch size")
			return nil, errors.New("no")
		}
		_, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err == nil || !strings.Contains(err.Error(), "holds 10 records but the batch size is 20") {
			t.Fatalf("want a terminal error naming sizes 10 and 20, got %v", err)
		}
	})

	t.Run("same size replays", func(t *testing.T) {
		walDir := t.TempDir()
		spillAll(t, walDir, feed, 10)
		var mu sync.Mutex
		var applied []wire.Batch
		srv := newScriptedServer(t, ackingServer(t, 0, 0, &mu, &applied))
		defer srv.close()
		cfg := testCfg(srv.addr())
		cfg.WALDir = walDir
		m, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if m.WALRecovered != 10 {
			t.Errorf("WALRecovered = %d, want 10", m.WALRecovered)
		}
		mu.Lock()
		defer mu.Unlock()
		checkDelivered(t, applied, vs, cfg.BatchSize, 1, 10)
	})
}

// TestAgentRefusedBatchEndsRun: a head that answers batch 5 with an Error
// frame every time ends the run within MaxDials sessions of the last one
// that got anything acknowledged, naming the batch and the head's text; a
// head that refuses it once gets every batch delivered, in order.
func TestAgentRefusedBatchEndsRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		refusals int
	}{{"every time", -1}, {"once", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var applied []wire.Batch
			sessions, refused := 0, 0
			srv := newScriptedServer(t, func(_ int, conn net.Conn) {
				r, w := wire.NewReader(conn), wire.NewWriter(conn)
				readHello(t, r)
				mu.Lock()
				sessions++
				resume := uint64(len(applied))
				mu.Unlock()
				w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: resume})
				w.Flush()
				for {
					f, err := r.Read()
					if err != nil {
						return
					}
					switch f.Type {
					case wire.TypeBatch:
						mu.Lock()
						refuse := f.Batch.Seq == 5 && (tc.refusals < 0 || refused < tc.refusals)
						if refuse {
							refused++
						} else if f.Batch.Seq == uint64(len(applied))+1 {
							applied = append(applied, wire.Batch{Seq: f.Batch.Seq, Visits: slices.Clone(f.Batch.Visits)})
						}
						mu.Unlock()
						if refuse {
							w.WriteError(wire.ErrorFrame{Msg: "batch 5 does not decode"})
							w.Flush()
							return
						}
						w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
					case wire.TypeHeartbeat:
						w.WriteAck(wire.Ack{Seq: 0})
					case wire.TypeGoodbye:
						w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
					}
					if err := w.Flush(); err != nil {
						return
					}
				}
			})
			defer srv.close()

			cfg := testCfg(srv.addr())
			cfg.MaxDials = 3
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			vs, feed := testFeed(t, 95)
			m, err := Run(ctx, bytes.NewReader(feed), cfg)
			srv.close()
			mu.Lock()
			defer mu.Unlock()
			if tc.refusals < 0 {
				if err == nil || !strings.Contains(err.Error(), "batch 5 was not acknowledged") ||
					!strings.Contains(err.Error(), "batch 5 does not decode") {
					t.Fatalf("want a terminal error naming batch 5 and the head's text, got %v", err)
				}
				// The first session applies batches 1–4; each session,
				// that one included, is refused on batch 5.
				if sessions != 1+cfg.MaxDials || m.Refused != int64(sessions) {
					t.Errorf("%d sessions, %d refused, want %d refused sessions", sessions, m.Refused, 1+cfg.MaxDials)
				}
				checkDelivered(t, applied, vs, cfg.BatchSize, 1, 4)
				return
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if m.Refused != 1 {
				t.Errorf("Refused = %d, want 1", m.Refused)
			}
			checkDelivered(t, applied, vs, cfg.BatchSize, 1, 10)
		})
	}
}

// holdSyncs holds back the WAL's sync news from every agent the test
// starts, as if each log's syncer were stuck in fsync, until release.
func holdSyncs(t *testing.T) (release func()) {
	orig, gate, done := walSynced, make(chan struct{}), make(chan struct{})
	walSynced = func(l *wal.Log) <-chan struct{} {
		held := make(chan struct{}, 1)
		go func() {
			select {
			case <-gate:
			case <-done:
				return
			}
			for {
				select {
				case <-l.Synced():
					select {
					case held <- struct{}{}:
					default:
					}
				case <-done:
					return
				}
			}
		}()
		return held
	}
	t.Cleanup(func() {
		walSynced = orig
		close(done)
	})
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// TestAgentSendsOnlyDurableBatches: no batch frame reaches the head
// before the WAL has made it durable. With the sync news held, the agent
// reads its whole source into the log while the head sees heartbeats and
// no batch; once it flows, every batch arrives, once and in order.
func TestAgentSendsOnlyDurableBatches(t *testing.T) {
	release := holdSyncs(t)
	var mu sync.Mutex
	var applied []wire.Batch
	heartbeats := make(chan struct{}, 1)
	srv := newScriptedServer(t, func(_ int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				mu.Lock()
				applied = append(applied, wire.Batch{Seq: f.Batch.Seq, Visits: slices.Clone(f.Batch.Visits)})
				mu.Unlock()
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				select {
				case heartbeats <- struct{}{}:
				default:
				}
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	})
	defer srv.close()
	defer release() // a failed check must not leave the run waiting

	drained := make(chan struct{})
	cfg := testCfg(srv.addr())
	cfg.WALDir = t.TempDir()
	cfg.OnSourceDrained = func() { close(drained) }
	vs, feed := testFeed(t, 95)
	type result struct {
		m   Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		done <- result{m, err}
	}()
	<-drained
	for live := 0; live < 3; { // heartbeats after the source drained: the session is up
		select {
		case <-heartbeats:
			live++
		case res := <-done:
			t.Fatalf("the run ended (%v) with no sync news: nothing can have waited for a durable mark", res.err)
		}
	}
	mu.Lock()
	early := len(applied)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("the head received %d batch frames before any sync reached the agent", early)
	}
	release()
	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	mu.Lock()
	defer mu.Unlock()
	checkDelivered(t, applied, vs, cfg.BatchSize, 1, 10)
	if res.m.WALSyncs == 0 {
		t.Error("WALSyncs = 0: the log issued no fsync")
	}
}

// TestAgentKilledBetweenAppendAndSync: an agent killed once its whole
// source is in the WAL, before any sync reached its send path, has sent
// nothing; its next incarnation replays the log, and the head gets every
// batch once with the bytes of an uninterrupted run.
func TestAgentKilledBetweenAppendAndSync(t *testing.T) {
	var mu sync.Mutex
	var applied []wire.Batch
	srv := newScriptedServer(t, ackingServer(t, 0, 0, &mu, &applied))
	defer srv.close()
	vs, feed := testFeed(t, 95)
	release := holdSyncs(t)
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	cfg := testCfg(srv.addr())
	cfg.WALDir = t.TempDir()
	cfg.OnSourceDrained = kill
	m1, err := Run(ctx, bytes.NewReader(feed), cfg)
	if !errors.Is(err, context.Canceled) || m1.WALAppended != 10 || m1.BatchesSent != 0 {
		t.Fatalf("run 1: %v with %d batches appended and %d sent, want context.Canceled, 10 and 0", err, m1.WALAppended, m1.BatchesSent)
	}

	release()
	cfg.OnSourceDrained = nil
	m2, err := Run(context.Background(), bytes.NewReader(feed), cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if m2.WALRecovered != 10 || m2.WALCovered != int64(len(vs)) {
		t.Errorf("run 2 recovered %d batches and covered %d records, want 10 and %d", m2.WALRecovered, m2.WALCovered, len(vs))
	}
	mu.Lock()
	defer mu.Unlock()
	checkDelivered(t, applied, vs, cfg.BatchSize, 1, 10)
}
