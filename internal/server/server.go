// Package server implements a generic n-tier component server: a thread
// pool in front of a CPU (cpu.Processor), an optional garbage-collected
// heap (jvm.Heap), and passive wire tracing of every request's arrival and
// departure (trace.Collector).
//
// A request's residence at a server is a sequence of phases: CPU work
// (contending for cores at the current clock speed) and downstream calls
// (thread held, no CPU). That reproduces the synchronous RPC style of the
// paper's RUBBoS stack: an Apache worker blocks on Tomcat, a Tomcat thread
// blocks on C-JDBC, and so on.
//
// When the thread pool and accept backlog are exhausted the request
// suffers a TCP retransmission delay before being accepted — the mechanism
// behind the paper's footnote 1: "once the concurrency exceeds the thread
// limit in the web tier ... new incoming requests will encounter TCP
// retransmissions, which cause over 3s response times".
package server

import (
	"errors"
	"fmt"

	"transientbd/internal/cpu"
	"transientbd/internal/jvm"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Phase is one step of a request's processing at a server.
type Phase interface{ isPhase() }

// Compute is a CPU phase: Work is the nominal-frequency service demand.
type Compute struct {
	Work simnet.Duration
}

func (Compute) isPhase() {}

// Downstream is a blocking call to another tier. Do must eventually invoke
// the provided completion callback exactly once; the server thread stays
// occupied (but off-CPU) until then.
type Downstream struct {
	Do func(done func())
}

func (Downstream) isPhase() {}

// Request is one unit of work arriving at a server.
type Request struct {
	// Class is the request class name (interaction type or query template).
	Class string
	// TxnID is the client transaction this request serves.
	TxnID int64
	// HopID is the call/return pair identifier for this visit. Allocate
	// from the trace collector.
	HopID int64
	// ParentHop identifies the upstream visit that issued this call (0 for
	// client-originated requests).
	ParentHop int64
	// From names the calling host (for wire messages).
	From string
	// Conn is the TCP connection carrying this request (0 = unknown);
	// recorded on the wire messages for black-box reconstruction.
	Conn int64
	// Phases is the processing recipe, executed in order.
	Phases []Phase
	// AllocBytes is heap allocation charged when processing starts
	// (ignored without a heap).
	AllocBytes int64
	// ReqBytes and RespBytes are wire sizes for network accounting.
	ReqBytes, RespBytes int64
	// OnDone is invoked after the response departs the server.
	OnDone func()

	phase int
}

// Config configures a Server.
type Config struct {
	// Name is the server's host name as seen on the wire. Required.
	Name string
	// Threads is the maximum number of concurrently admitted requests
	// (worker thread pool size). Required.
	Threads int
	// AcceptBacklog bounds the accept queue beyond the thread pool; 0
	// means unbounded (no retransmission behaviour).
	AcceptBacklog int
}

// retransDelay is the TCP retransmission timeout when the backlog is
// full: the classic initial RTO the paper cites.
const retransDelay = 3 * simnet.Second

// Server is one component server of the n-tier system.
type Server struct {
	engine    *simnet.Engine
	proc      *cpu.Processor
	heap      *jvm.Heap
	collector *trace.Collector
	cfg       Config

	admitted int
	waitq    []*Request

	// Cumulative accounting for Table I style reports.
	netInBytes   int64
	netOutBytes  int64
	completed    int64
	retransCount int64
}

// New creates a server. The heap may be nil (no GC, e.g. Apache/MySQL).
func New(engine *simnet.Engine, proc *cpu.Processor, heap *jvm.Heap, collector *trace.Collector, cfg Config) (*Server, error) {
	if engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if proc == nil {
		return nil, errors.New("server: nil processor")
	}
	if collector == nil {
		return nil, errors.New("server: nil trace collector")
	}
	if cfg.Name == "" {
		return nil, errors.New("server: empty name")
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("server: threads must be positive, got %d", cfg.Threads)
	}
	return &Server{
		engine:    engine,
		proc:      proc,
		heap:      heap,
		collector: collector,
		cfg:       cfg,
	}, nil
}

// Name returns the server's host name.
func (s *Server) Name() string { return s.cfg.Name }

// Processor returns the server's CPU.
func (s *Server) Processor() *cpu.Processor { return s.proc }

// Heap returns the server's JVM heap, or nil.
func (s *Server) Heap() *jvm.Heap { return s.heap }

// Load returns the number of requests currently resident (admitted plus
// queued) — the instantaneous value of the paper's load metric.
func (s *Server) Load() int { return s.admitted + len(s.waitq) }

// Completed returns the number of requests fully served.
func (s *Server) Completed() int64 { return s.completed }

// Retransmissions returns how many accepts were delayed by a full backlog.
func (s *Server) Retransmissions() int64 { return s.retransCount }

// NetBytes returns cumulative request (in) and response (out) wire bytes.
func (s *Server) NetBytes() (in, out int64) { return s.netInBytes, s.netOutBytes }

// Receive delivers a request to the server. If the thread pool and backlog
// are both full, acceptance is retried after the TCP retransmission delay;
// the wire arrival is recorded when the server actually accepts.
func (s *Server) Receive(r *Request) error {
	if r == nil {
		return errors.New("server: nil request")
	}
	if r.HopID == 0 {
		return errors.New("server: request without hop id")
	}
	if s.cfg.AcceptBacklog > 0 && s.admitted >= s.cfg.Threads && len(s.waitq) >= s.cfg.AcceptBacklog {
		s.retransCount++
		req := r
		s.engine.Schedule(retransDelay, func() {
			// Errors cannot recur: the checks above already passed.
			_ = s.Receive(req)
		})
		return nil
	}
	s.collector.Record(trace.Message{
		At:        s.engine.Now(),
		From:      r.From,
		To:        s.cfg.Name,
		Dir:       trace.Call,
		Class:     r.Class,
		Conn:      r.Conn,
		TxnID:     r.TxnID,
		HopID:     r.HopID,
		ParentHop: r.ParentHop,
		Bytes:     r.ReqBytes,
	})
	s.netInBytes += r.ReqBytes
	if s.admitted < s.cfg.Threads {
		s.begin(r)
	} else {
		s.waitq = append(s.waitq, r)
	}
	return nil
}

func (s *Server) begin(r *Request) {
	s.admitted++
	if s.heap != nil && r.AllocBytes > 0 {
		s.heap.Alloc(r.AllocBytes)
	}
	r.phase = 0
	s.runPhase(r)
}

func (s *Server) runPhase(r *Request) {
	if r.phase >= len(r.Phases) {
		s.finish(r)
		return
	}
	ph := r.Phases[r.phase]
	r.phase++
	switch p := ph.(type) {
	case Compute:
		s.proc.Submit(p.Work, func() { s.runPhase(r) })
	case Downstream:
		if p.Do == nil {
			s.runPhase(r)
			return
		}
		p.Do(func() { s.runPhase(r) })
	default:
		// Unknown phase types are skipped; the phase set is closed within
		// this package so this is unreachable by construction.
		s.runPhase(r)
	}
}

func (s *Server) finish(r *Request) {
	s.collector.Record(trace.Message{
		At:    s.engine.Now(),
		From:  s.cfg.Name,
		To:    r.From,
		Dir:   trace.Return,
		Class: r.Class,
		Conn:  r.Conn,
		TxnID: r.TxnID,
		HopID: r.HopID,
		Bytes: r.RespBytes,
	})
	s.netOutBytes += r.RespBytes
	s.completed++
	s.admitted--
	if len(s.waitq) > 0 {
		next := s.waitq[0]
		s.waitq = s.waitq[1:]
		s.begin(next)
	}
	if r.OnDone != nil {
		r.OnDone()
	}
}
