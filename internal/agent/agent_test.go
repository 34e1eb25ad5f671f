package agent

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"transientbd/internal/chaos"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/wire"
)

// testFeed renders a deterministic workload as the JSONL agents read.
func testFeed(t testing.TB, n int) ([]trace.Visit, []byte) {
	t.Helper()
	vs := chaos.Workload([]string{"a", "b"}, n, 9)
	var buf bytes.Buffer
	if err := traceio.WriteVisits(&buf, vs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return vs, buf.Bytes()
}

// testCfg is an agent tuned for fast tests against addr.
func testCfg(addr string) Config {
	return Config{
		Node:           "n1",
		Addr:           addr,
		BatchSize:      10,
		Window:         4,
		HeartbeatEvery: 20 * time.Millisecond,
		IOTimeout:      300 * time.Millisecond,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	}
}

// scriptedServer accepts connections and hands each to handle on its
// own goroutine. Close stops the listener and waits.
type scriptedServer struct {
	lis  net.Listener
	wg   sync.WaitGroup
	stop chan struct{}
}

func newScriptedServer(t testing.TB, handle func(sess int, conn net.Conn)) *scriptedServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &scriptedServer{lis: lis, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for sess := 0; ; sess++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func(sess int) {
				defer s.wg.Done()
				defer conn.Close()
				handle(sess, conn)
			}(sess)
		}
	}()
	return s
}

func (s *scriptedServer) addr() string { return s.lis.Addr().String() }

func (s *scriptedServer) close() {
	s.lis.Close()
	s.wg.Wait()
}

// readHello consumes the handshake open, failing the test on anything
// else.
func readHello(t testing.TB, r *wire.Reader) wire.Hello {
	t.Helper()
	f, err := r.Read()
	if err != nil || f.Type != wire.TypeHello {
		t.Errorf("expected Hello, got type %d err %v", f.Type, err)
		return wire.Hello{}
	}
	return f.Hello
}

func TestAgentHandshakeRejectionIsTerminal(t *testing.T) {
	srv := newScriptedServer(t, func(_ int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteError(wire.ErrorFrame{Msg: "protocol version 99 not supported"})
		w.Flush()
	})
	defer srv.close()

	_, feed := testFeed(t, 30)
	start := time.Now()
	_, err := Run(context.Background(), bytes.NewReader(feed), testCfg(srv.addr()))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want terminal rejection error, got %v", err)
	}
	// Terminal means no retry loop: well under one backoff cycle.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rejection took %v — looks like it retried", d)
	}
}

func TestAgentGivesUpAfterMaxDials(t *testing.T) {
	// A listener that is immediately closed: every dial fails fast.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close()

	cfg := testCfg(addr)
	cfg.MaxDials = 3
	_, feed := testFeed(t, 30)
	_, err = Run(context.Background(), bytes.NewReader(feed), cfg)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3") {
		t.Fatalf("want give-up error after 3 attempts, got %v", err)
	}
}

func TestAgentResumeFastForward(t *testing.T) {
	// The head claims batches 1..3 are already applied (a restarted
	// agent re-reading its source). The agent must regenerate but never
	// send them, starting at sequence 4.
	const lastAcked = 3
	var mu sync.Mutex
	var seqs []uint64
	srv := newScriptedServer(t, func(_ int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: lastAcked})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				mu.Lock()
				seqs = append(seqs, f.Batch.Seq)
				mu.Unlock()
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			w.Flush()
		}
	})
	defer srv.close()

	vs, feed := testFeed(t, 95) // 10 batches of 10 (last short)
	cfg := testCfg(srv.addr())
	m, err := Run(context.Background(), bytes.NewReader(feed), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) == 0 || seqs[0] != lastAcked+1 {
		t.Fatalf("first sent batch seq %v, want %d", seqs, lastAcked+1)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("non-contiguous sends: %v", seqs)
		}
	}
	if want := int64(lastAcked * cfg.BatchSize); m.ResumeSkipped != want {
		t.Errorf("ResumeSkipped = %d, want %d", m.ResumeSkipped, want)
	}
	if m.RecordsRead != int64(len(vs)) {
		t.Errorf("RecordsRead = %d, want %d (fast-forward still reads the source)", m.RecordsRead, len(vs))
	}
	if m.RecordsSent != int64(len(vs))-m.ResumeSkipped {
		t.Errorf("RecordsSent = %d, want %d", m.RecordsSent, int64(len(vs))-m.ResumeSkipped)
	}
}

func TestAgentReconnectRetransmitsUnacked(t *testing.T) {
	// Session 0: welcome, ack the first two batches, then cut the
	// connection without warning. Session 1: welcome with
	// LastAcked=2; the agent must retransmit from 3, in order, and
	// finish cleanly.
	var mu sync.Mutex
	var got []uint64 // applied batch seqs across sessions
	srv := newScriptedServer(t, func(sess int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: uint64(min(len(appliedLocked(&mu, &got)), 2))})
		w.Flush()
		acked := 0
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				mu.Lock()
				if int(f.Batch.Seq) == len(got)+1 {
					got = append(got, f.Batch.Seq)
				}
				mu.Unlock()
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
				acked++
				if sess == 0 && acked == 2 {
					w.Flush()
					return // hard cut mid-stream
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

	_, feed := testFeed(t, 95)
	m, err := Run(context.Background(), bytes.NewReader(feed), testCfg(srv.addr()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("applied %d batches (%v), want 10", len(got), got)
	}
	if m.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", m.Reconnects)
	}
	if m.BatchesAcked != 10 {
		t.Errorf("BatchesAcked = %d, want 10", m.BatchesAcked)
	}
}

func TestAgentCleanExitWhenGoodbyeEchoLostAndHeadDraining(t *testing.T) {
	// Session 0: ack every batch, receive the Goodbye, then cut the
	// connection without echoing it — the head applied the EOF but the
	// confirmation died with the link. Session 1: the head has finished
	// draining and rejects the handshake terminally. Everything was
	// delivered, so the agent must exit clean (nil), not report the
	// rejection as a failure.
	var mu sync.Mutex
	var acked int64
	srv := newScriptedServer(t, func(sess int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(t, r)
		if sess > 0 {
			w.WriteError(wire.ErrorFrame{Msg: "merge head is draining"})
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
				mu.Lock()
				acked++
				mu.Unlock()
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				return // swallow the EOF notice: no echo, hard cut
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	})
	defer srv.close()

	vs, feed := testFeed(t, 95)
	m, err := Run(context.Background(), bytes.NewReader(feed), testCfg(srv.addr()))
	if err != nil {
		t.Fatalf("Run after full delivery must succeed, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if acked != 10 {
		t.Fatalf("head acked %d batches, want 10", acked)
	}
	if m.BatchesAcked != 10 {
		t.Errorf("BatchesAcked = %d, want 10", m.BatchesAcked)
	}
	if m.RecordsSent != int64(len(vs)) {
		t.Errorf("RecordsSent = %d, want %d", m.RecordsSent, len(vs))
	}
}

func appliedLocked(mu *sync.Mutex, got *[]uint64) []uint64 {
	mu.Lock()
	defer mu.Unlock()
	return *got
}
