// Package serve is the live serving layer over the sharded online
// detection runtime: the piece that turns tbdetect -follow from a
// printer into an operable service. It exposes the runtime's
// self-metrics in Prometheus text form (/metrics), container-probe
// endpoints backed by per-shard liveness heartbeats and a readiness bit
// (/healthz, /readyz), a JSON query API over the merged snapshot
// (/report, /servers/{id}/series), and a streaming alert subscription
// over Server-Sent Events (/alerts) with per-subscriber bounded queues
// and drop accounting.
//
// # Isolation from the hot path
//
// The server never touches shard state. Everything it serves comes from
// three read-only surfaces that are safe from any goroutine: the
// runtime's atomic self-metrics counters (Config.Metrics), the per-shard
// heartbeat samples (Config.Health), and snapshots the producer
// publishes explicitly via PublishSnapshot (an atomic pointer swap).
// Alert fan-out happens on the alert-consumer goroutine via
// PublishAlert with non-blocking sends: a slow subscriber drops alerts
// from its own queue — with accounting — and can never backpressure the
// detector. Attaching the server adds zero locks and zero allocations
// to the shard ingest path; TestServeObserverPurity and the
// BenchmarkIngest pair in this package keep that honest.
//
// # Lifecycle
//
// New → Start → (SetReady(true) … serve … SetReady(false)) → Shutdown.
// Shutdown first closes every alert subscription (each SSE handler
// finishes its stream with an "end" event) and then gracefully shuts
// down the HTTP listener, so it composes with the runtime's existing
// SIGTERM drain sequence: stop ingesting, seal intervals, publish the
// final snapshot, then Shutdown.
package serve

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/merge"
	"transientbd/internal/stream"
)

// Config wires a Server to a runtime. Metrics and Health are required;
// both must be safe to call from any goroutine (stream.Runtime's
// methods of the same names are).
type Config struct {
	// Metrics returns the runtime's self-metrics counter block.
	Metrics func() stream.Metrics
	// Health samples every shard's queue depth and liveness heartbeat.
	Health func() []stream.ShardHealth
	// Now is the wall clock, injectable for tests. Default time.Now.
	Now func() time.Time
	// Nodes, when set, samples the per-node ingestion state of a merge
	// head (tbdetect merge): it enables the tbdetect_node_* metric
	// families for reconnect/degrade alerting. Must be safe to call
	// from any goroutine. Nil (the single-process follow mode) leaves
	// the node families without samples.
	Nodes func() []merge.NodeStatus
	// PeersRejected, when set, reports how many inbound peers the merge
	// head has rejected for failing authentication (wrong shared key,
	// pre-auth protocol version, or a broken challenge exchange). Must
	// be safe to call from any goroutine. Nil leaves the family without
	// samples.
	PeersRejected func() int64
}

// published is one snapshot publication: what the producer handed over
// and when, plus the root-cause verdicts derived from it. The struct is
// immutable after the atomic Store, so handlers read it lock-free.
type published struct {
	snap *stream.Snapshot
	at   time.Time
	// causes ranks the attribution engine's verdicts over the snapshot,
	// most likely root cause first; topKind maps each server to its
	// highest-ranked verdict kind (the SSE alert annotation).
	causes  []cause.Verdict
	topKind map[string]string
}

// Server is the HTTP serving layer. All exported methods are safe from
// any goroutine.
type Server struct {
	cfg   Config
	hub   *hub
	mux   *http.ServeMux
	httpd *http.Server
	lis   net.Listener

	snap   atomic.Pointer[published]
	ready  atomic.Bool
	reason atomic.Value // string: why not ready ("" = no stated reason)
}

// New builds a Server. Start must be called to listen; Handler is
// usable immediately (tests mount it directly).
func New(cfg Config) *Server {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{cfg: cfg, hub: newHub()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /report", s.handleReport)
	mux.HandleFunc("GET /servers/{id}/series", s.handleSeries)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s
}

// Handler returns the route table, for mounting in tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.httpd = &http.Server{Handler: s.mux}
	go s.httpd.Serve(lis) //nolint:errcheck // ErrServerClosed after Shutdown
	return lis.Addr().String(), nil
}

// Shutdown ends the serving layer: every alert subscription is closed
// (subscribers receive a final "end" event), then the HTTP server shuts
// down gracefully within ctx. Safe to call without Start (no-op beyond
// closing subscriptions) and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.hub.closeAll()
	if s.httpd == nil {
		return nil
	}
	if err := s.httpd.Shutdown(ctx); err != nil {
		s.httpd.Close() //nolint:errcheck // last-resort teardown
		return err
	}
	return nil
}

// PublishSnapshot hands the server a new merged snapshot to serve from
// /report and /servers/{id}/series: one atomic pointer swap, called
// from the producer goroutine at whatever cadence it chooses. A nil
// snapshot is ignored.
func (s *Server) PublishSnapshot(snap *stream.Snapshot) {
	if snap == nil {
		return
	}
	// Attribution runs once per publication, on the producer goroutine —
	// never per request, never on the ingest path.
	p := &published{snap: snap, at: s.cfg.Now(), causes: cause.AttributeAnalyses(snap.Ranking, cause.Options{Downstream: snap.Graph})}
	p.topKind = make(map[string]string, len(p.causes))
	for _, v := range p.causes {
		// Causes are ranked, so the first verdict seen per server is its
		// top one.
		if _, ok := p.topKind[v.Server]; !ok {
			p.topKind[v.Server] = string(v.Kind)
		}
	}
	s.snap.Store(p)
}

// verdictFor returns the top verdict kind for a server from the latest
// published snapshot ("" before the first publication or when the
// server has no verdict).
func (s *Server) verdictFor(server string) string {
	if pub := s.snap.Load(); pub != nil {
		return pub.topKind[server]
	}
	return ""
}

// PublishAlert fans one alert out to every /alerts subscriber with a
// non-blocking send per subscriber: a full queue drops the alert for
// that subscriber only, with accounting. Called from the alert-consumer
// goroutine; never blocks.
func (s *Server) PublishAlert(a stream.Alert) { s.hub.publish(a) }

// SetReady flips the /readyz readiness bit: true once the runtime is
// ingesting, false while it drains. Readiness starts false. Flipping
// ready clears any reason set by SetNotReady.
func (s *Server) SetReady(ready bool) {
	if ready {
		s.reason.Store("")
	}
	s.ready.Store(ready)
}

// SetNotReady flips the readiness bit off with a stated reason, which
// /readyz reports alongside the 503 (e.g. "resuming" while a restarted
// process replays the feed prefix its checkpoint already covers — the
// process is alive but must not receive traffic-dependent probes yet).
func (s *Server) SetNotReady(reason string) {
	s.reason.Store(reason)
	s.ready.Store(false)
}

// Ready reports the current readiness bit.
func (s *Server) Ready() bool { return s.ready.Load() }

// readyReason returns the stated not-ready reason ("" if none).
func (s *Server) readyReason() string {
	v, _ := s.reason.Load().(string)
	return v
}
