package merge

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"transientbd/internal/stream"
	"transientbd/internal/wire"
)

// ServerConfig tunes the TCP front of a merge head.
type ServerConfig struct {
	// Core configures the transport-independent merge head underneath.
	Core Config
	// AuthKey, when set, requires every agent to pass the mutual HMAC
	// challenge/response before admission. Agents with no key or the
	// wrong key are rejected with a readable Error frame and counted in
	// AuthRejects; they never contribute a record.
	AuthKey []byte
	// TLS, when set, wraps the listener so every session runs over TLS
	// (the CLI builds this from -tls-cert/-tls-key/-tls-ca).
	TLS *tls.Config
	// Logf, when set, receives session lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Server accepts agent connections and drives a Core. The Core is
// single-owner; the server funnels every mutating call through one
// event goroutine, so sessions never race on barrier state.
//
// Lifecycle: New → Start → (sessions run) → Done closes when every
// node says Goodbye, after which Final holds the sealed snapshot.
// Drain forces that end early (SIGTERM); Close tears everything down.
// The caller must drain Alerts() for the server's whole life.
type Server struct {
	cfg  ServerConfig
	core *Core
	lis  net.Listener

	events chan func()
	quit   chan struct{} // closed by Close: stops the loops
	done   chan struct{} // closed once the core is finished
	final  *stream.Snapshot
	// echoing counts accepted Goodbyes whose echo is not yet written.
	// Event goroutine only.
	echoing int

	// evMu gates event submission: do() holds the read lock across its
	// enqueue, Close sets evClosed under the write lock *before*
	// closing quit — so every closure that made it into the queue is
	// guaranteed to run during the event loop's final drain, and no
	// do() caller can hang on a closure the loop will never see.
	evMu     sync.RWMutex
	evClosed bool

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	sessions sync.WaitGroup
	loops    sync.WaitGroup

	authRejects atomic.Int64
}

// NewServer builds a merge head server (and its runtime). Start must
// follow; Close must eventually be called.
func NewServer(cfg ServerConfig) (*Server, error) {
	core, err := New(cfg.Core)
	if err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{
		cfg:    cfg,
		core:   core,
		events: make(chan func(), 64),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}, nil
}

// Start listens on addr (e.g. "127.0.0.1:0") and begins accepting
// agents. Returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		s.core.Abort()
		return "", err
	}
	if s.cfg.TLS != nil {
		lis = tls.NewListener(lis, s.cfg.TLS)
	}
	s.lis = lis
	s.loops.Add(2)
	go s.eventLoop()
	go s.tickLoop()
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// do runs f on the event goroutine and waits for it. Returns false if
// the server is shutting down (f did not run).
func (s *Server) do(f func()) bool {
	s.evMu.RLock()
	if s.evClosed {
		s.evMu.RUnlock()
		return false
	}
	ran := make(chan struct{})
	s.events <- func() { f(); close(ran) }
	s.evMu.RUnlock()
	<-ran
	return true
}

func (s *Server) eventLoop() {
	defer s.loops.Done()
	for {
		select {
		case f := <-s.events:
			f()
		case <-s.quit:
			// Drain anything already queued so no do() caller hangs.
			for {
				select {
				case f := <-s.events:
					f()
				default:
					return
				}
			}
		}
	}
}

// tickLoop runs the heartbeat-timeout sweep (degrade detection) every
// second, or every quarter of the timeout when that is shorter.
func (s *Server) tickLoop() {
	defer s.loops.Done()
	t := time.NewTicker(min(time.Second, s.core.cfg.HeartbeatTimeout/4))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.do(func() {
				if s.core.finished {
					return
				}
				for _, name := range s.core.Tick() {
					s.cfg.Logf("merge: node %q degraded (silent past %v); barrier no longer waits for it", name, s.core.cfg.HeartbeatTimeout)
				}
			})
		case <-s.quit:
			return
		case <-s.done:
			return
		}
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed (Drain/Close)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.sessions.Add(1)
		s.mu.Unlock()
		go s.session(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// session speaks one agent connection: handshake, then batches,
// heartbeats and the Goodbye, each applied to the Core on the event
// goroutine and answered on this one (single writer per connection).
func (s *Server) session(conn net.Conn) {
	defer s.sessions.Done()
	defer s.dropConn(conn)

	// A session that never completes a handshake should not linger; a
	// live session must send *something* (heartbeats at minimum) well
	// within twice the degrade timeout.
	idle := 2 * s.core.cfg.HeartbeatTimeout
	r := wire.NewReader(conn)
	w := wire.NewWriter(conn)

	conn.SetReadDeadline(time.Now().Add(idle))
	f, err := r.Read()
	if err != nil {
		s.cfg.Logf("merge: %s: handshake read: %v", conn.RemoteAddr(), err)
		return
	}
	if f.Type != wire.TypeHello {
		s.reject(conn, w, fmt.Sprintf("expected Hello, got frame type %d", f.Type))
		return
	}
	if f.Hello.Version != wire.Version {
		if len(s.cfg.AuthKey) > 0 && f.Hello.Version < 2 {
			// The old protocol has no authentication at all; tell the peer
			// why it can never be admitted rather than just "wrong version".
			s.authRejects.Add(1)
			s.reject(conn, w, fmt.Sprintf("unauthenticated peer: protocol version %d predates authenticated sessions (head speaks %d and requires a shared key)", f.Hello.Version, wire.Version))
			return
		}
		s.reject(conn, w, fmt.Sprintf("protocol version %d not supported (head speaks %d)", f.Hello.Version, wire.Version))
		return
	}
	if f.Hello.Node == "" {
		s.reject(conn, w, "empty node identity")
		return
	}
	node := f.Hello.Node
	if len(s.cfg.AuthKey) > 0 {
		if !s.challenge(conn, r, w, f.Hello) {
			return
		}
	}

	var lastAcked uint64
	var refused bool
	if !s.do(func() {
		if s.core.finished {
			refused = true
			return
		}
		lastAcked = s.core.Admit(node, f.Hello.FirstSeq)
	}) || refused {
		s.reject(conn, w, "merge head is draining")
		return
	}
	defer s.do(func() { s.core.Depart(node) })
	if err := w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: lastAcked}); err == nil {
		err = w.Flush()
	}
	if err != nil {
		s.cfg.Logf("merge: node %q: welcome write: %v", node, err)
		return
	}
	s.cfg.Logf("merge: node %q connected from %s (resume cursor %d)", node, conn.RemoteAddr(), lastAcked)

	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		f, err := r.Read()
		if err != nil {
			s.cfg.Logf("merge: node %q: read: %v (session over; agent will retransmit)", node, err)
			return
		}
		switch f.Type {
		case wire.TypeBatch:
			var ack uint64
			var aerr error
			if !s.do(func() { ack, aerr = s.core.Batch(node, f.Batch.Seq, f.Batch.Visits) }) {
				return
			}
			if aerr != nil {
				s.reject(conn, w, aerr.Error())
				return
			}
			if err := writeAck(conn, w, ack); err != nil {
				return
			}
		case wire.TypeHeartbeat:
			var ack uint64
			var aerr error
			hb := f.Heartbeat
			if !s.do(func() {
				ack, aerr = s.core.Heartbeat(node)
				if aerr == nil {
					s.core.WALStats(node, hb.WALDepth, hb.WALSegments, hb.Spilling)
				}
			}) {
				return
			}
			if aerr != nil {
				s.reject(conn, w, aerr.Error())
				return
			}
			if err := writeAck(conn, w, ack); err != nil {
				return
			}
		case wire.TypeGoodbye:
			var aerr error
			if !s.do(func() {
				if aerr = s.core.EOF(node, f.Goodbye.FinalSeq); aerr == nil {
					s.echoing++
				}
			}) {
				return
			}
			if aerr != nil {
				s.reject(conn, w, aerr.Error())
				return
			}
			// Echo the Goodbye: the agent's confirmation that the full
			// stream is applied. The agent closes; our read sees EOF.
			// Done may close only after every owed echo is flushed: its
			// waiter is entitled to Close, which cuts every connection,
			// and an agent cut before its echo redials a head that is gone.
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"}); err == nil {
				w.Flush()
			}
			s.cfg.Logf("merge: node %q finished its stream at seq %d", node, f.Goodbye.FinalSeq)
			s.do(func() {
				if s.echoing--; s.echoing == 0 && s.core.Done() {
					s.finish()
				}
			})
		case wire.TypeError:
			s.cfg.Logf("merge: node %q reported: %s", node, f.Error.Msg)
			return
		default:
			s.reject(conn, w, fmt.Sprintf("unexpected frame type %d", f.Type))
			return
		}
	}
}

// challenge runs the head's half of the mutual HMAC exchange: send
// Challenge (with our own proof over both nonces), demand a valid
// AgentProof back. Every way an agent can fail — wrong key, no Auth
// frame, a vanished connection — counts as an auth rejection; only a
// verified proof admits the node.
func (s *Server) challenge(conn net.Conn, r *wire.Reader, w *wire.Writer, h wire.Hello) bool {
	nonce, err := wire.NewNonce()
	if err != nil {
		s.cfg.Logf("merge: %s: challenge nonce: %v", conn.RemoteAddr(), err)
		return false
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := w.WriteChallenge(wire.Challenge{Nonce: nonce, Proof: wire.HeadProof(s.cfg.AuthKey, h.Nonce, nonce)}); err == nil {
		err = w.Flush()
	}
	if err != nil {
		s.cfg.Logf("merge: %s: challenge write: %v", conn.RemoteAddr(), err)
		return false
	}
	f, err := r.Read()
	if err != nil {
		s.authRejects.Add(1)
		s.cfg.Logf("merge: %s: rejected: no authentication response from node %q: %v", conn.RemoteAddr(), h.Node, err)
		return false
	}
	if f.Type != wire.TypeAuth {
		s.authRejects.Add(1)
		s.reject(conn, w, fmt.Sprintf("expected Auth, got frame type %d", f.Type))
		return false
	}
	if !wire.ProofEqual(f.Auth.MAC, wire.AgentProof(s.cfg.AuthKey, h.Node, h.Nonce, nonce)) {
		s.authRejects.Add(1)
		s.reject(conn, w, fmt.Sprintf("authentication failed for node %q (shared key mismatch)", h.Node))
		return false
	}
	return true
}

func writeAck(conn net.Conn, w *wire.Writer, seq uint64) error {
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := w.WriteAck(wire.Ack{Seq: seq}); err != nil {
		return err
	}
	return w.Flush()
}

// reject sends an Error frame (best effort) and closes the connection.
func (s *Server) reject(conn net.Conn, w *wire.Writer, msg string) {
	s.cfg.Logf("merge: %s: rejected: %s", conn.RemoteAddr(), msg)
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := w.WriteError(wire.ErrorFrame{Msg: msg}); err == nil {
		w.Flush()
	}
}

// finish seals the core exactly once. Event goroutine only.
func (s *Server) finish() {
	select {
	case <-s.done:
		return
	default:
	}
	s.final = s.core.Finish()
	close(s.done)
}

// Done closes once every known node reached EOF (or Drain forced the
// end). Final is valid after it closes.
func (s *Server) Done() <-chan struct{} { return s.done }

// Final returns the sealed snapshot; valid once Done is closed.
func (s *Server) Final() *stream.Snapshot {
	select {
	case <-s.done:
		return s.final
	default:
		return nil
	}
}

// Drain forces the head to seal now — the SIGTERM path: stop accepting
// agents, release and seal everything buffered (stragglers from
// degraded or mid-reconnect nodes included), write the final
// checkpoint (when configured) and return the final snapshot.
// Idempotent; safe from any goroutine.
func (s *Server) Drain() *stream.Snapshot {
	if s.lis != nil {
		s.lis.Close()
	}
	s.do(func() { s.finish() })
	<-s.done
	return s.final
}

// Close drains (if not already finished) and tears the server down:
// listener, open sessions, event and tick loops. Safe to call more
// than once.
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.sessions.Wait()
	if !already {
		// Stop accepting events only after every session is gone, then
		// let the loops drain what is queued and exit.
		s.evMu.Lock()
		s.evClosed = true
		s.evMu.Unlock()
		close(s.quit)
	}
	s.loops.Wait()
}

// Alerts returns the runtime's merged alert stream; the caller must
// drain it. It closes after the head finishes.
func (s *Server) Alerts() <-chan stream.Alert { return s.core.Alerts() }

// Metrics returns the underlying runtime's self-metrics. Safe from any
// goroutine.
func (s *Server) Metrics() stream.Metrics { return s.core.Metrics() }

// ShardHealth samples the runtime's per-shard liveness. Safe from any
// goroutine.
func (s *Server) ShardHealth() []stream.ShardHealth { return s.core.ShardHealth() }

// NodeStatuses returns the published per-node state. Safe from any
// goroutine.
func (s *Server) NodeStatuses() []NodeStatus { return s.core.NodeStatuses() }

// AuthRejects reports cumulative sessions refused by the shared-key
// handshake (wrong key, no key, pre-auth protocol). Safe from any
// goroutine.
func (s *Server) AuthRejects() int64 { return s.authRejects.Load() }

// Snapshot returns the current ranked window state, computed on the
// event goroutine. Returns an error if the server is shutting down.
func (s *Server) Snapshot() (*stream.Snapshot, error) {
	var snap *stream.Snapshot
	if !s.do(func() {
		if !s.core.finished {
			snap = s.core.Snapshot()
		} else {
			snap = s.final
		}
	}) {
		return nil, errors.New("merge: server is shutting down")
	}
	return snap, nil
}
