package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/stream"
)

// The JSON shapes below are the public query API of tbdetect -follow
// -listen. They are documented with worked examples in docs/api.md, and
// docs_test.go asserts the documented examples against real handler
// output — change a field here and the docs test fails until the docs
// follow.

// ReportJSON is the /report response: the current merged snapshot,
// servers ranked worst-first, plus the self-metrics block at snapshot
// time.
type ReportJSON struct {
	// WatermarkMicros is the interval-closing watermark of the snapshot,
	// in microseconds of trace time.
	WatermarkMicros int64 `json:"watermark_us"`
	// PublishedUnixMilli is the wall-clock time the producer published
	// this snapshot.
	PublishedUnixMilli int64 `json:"published_unix_ms"`
	// Servers ranks every tracked server worst-first (congested fraction
	// descending, ties by name).
	Servers []ServerRankJSON `json:"servers"`
	// Causes ranks the attribution engine's root-cause verdicts over the
	// snapshot, most likely first. Empty when no server congested enough
	// to fingerprint.
	Causes []CauseJSON `json:"causes"`
	// Metrics is the runtime self-metrics block.
	Metrics MetricsJSON `json:"metrics"`
}

// CauseJSON is one ranked root-cause verdict in the /report response.
type CauseJSON struct {
	// Kind names the fingerprinted cause: "conn-pool-exhaustion",
	// "lock-convoy", "cache-stampede", "noisy-neighbor", "overload",
	// "autoscale-slow-start", "gc-pause" or "saturation".
	Kind string `json:"kind"`
	// Server is where the cause acts — for pool exhaustion, the capped
	// server itself, witnessed from its queueing callers.
	Server string `json:"server"`
	// Confidence in (0, 1] is fingerprint sharpness; Score ranks
	// verdicts across servers (congested fraction × unexplained share ×
	// confidence).
	Confidence float64 `json:"confidence"`
	Score      float64 `json:"score"`
	// Evidence is human-readable support, free of absolute timestamps.
	Evidence []string `json:"evidence"`
}

// ServerRankJSON is one server's row in the /report ranking.
type ServerRankJSON struct {
	Server string `json:"server"`
	// NStar is the congestion point (work units of concurrent load);
	// TPMaxPerSec the corresponding saturation throughput; Saturated
	// whether the window's load ever crossed the knee.
	NStar       float64 `json:"nstar"`
	TPMaxPerSec float64 `json:"tpmax_per_sec"`
	Saturated   bool    `json:"saturated"`
	// CongestedFraction is the share of window intervals classified
	// congested; CongestedIntervals the absolute count; Intervals the
	// window size in intervals; POIs the freeze count.
	CongestedFraction  float64 `json:"congested_fraction"`
	CongestedIntervals int     `json:"congested_intervals"`
	Intervals          int     `json:"intervals"`
	POIs               int     `json:"pois"`
	// WindowStartMicros and IntervalMicros anchor the window's interval
	// grid, in microseconds of trace time.
	WindowStartMicros int64 `json:"window_start_us"`
	IntervalMicros    int64 `json:"interval_us"`
}

// MetricsJSON mirrors stream.Metrics for the JSON API.
type MetricsJSON struct {
	Shards            int     `json:"shards"`
	Ingested          int64   `json:"records_ingested"`
	Dropped           int64   `json:"records_dropped"`
	Late              int64   `json:"records_late"`
	IntervalsClosed   int64   `json:"intervals_closed"`
	Congested         int64   `json:"intervals_congested"`
	Freezes           int64   `json:"freezes"`
	Reestimates       int64   `json:"nstar_reestimates"`
	QueueDepth        []int64 `json:"queue_depth"`
	Checkpoints       int64   `json:"checkpoints_written"`
	CheckpointsFailed int64   `json:"checkpoints_failed"`
	ShardRestarts     int64   `json:"shard_restarts"`
	DegradedShards    int64   `json:"degraded_shards"`
	RecordsLost       int64   `json:"records_lost"`
	AlertsLost        int64   `json:"alerts_lost"`
	WatermarkMicros   int64   `json:"watermark_us"`
	MaxDepartMicros   int64   `json:"max_depart_us"`
}

// SeriesJSON is the /servers/{id}/series response: one server's
// per-interval load/throughput/classification series over its current
// sliding window.
type SeriesJSON struct {
	Server string `json:"server"`
	// StartMicros is the first covered interval's start; IntervalMicros
	// the grid width. Interval i covers [start + i*interval, start +
	// (i+1)*interval).
	StartMicros    int64 `json:"start_us"`
	IntervalMicros int64 `json:"interval_us"`
	// NStar and TPMaxPerSec are estimated from the covered intervals.
	NStar       float64 `json:"nstar"`
	TPMaxPerSec float64 `json:"tpmax_per_sec"`
	// Load is the time-weighted concurrent-request average per interval;
	// Throughput the normalized work units per second per interval.
	Load       []float64 `json:"load"`
	Throughput []float64 `json:"throughput"`
	// States classifies each interval: "idle", "normal" or "congested".
	// POIs indexes the freeze intervals (offsets into States).
	States []string `json:"states"`
	POIs   []int    `json:"pois"`
}

// AlertJSON is the payload of one SSE "alert" event on /alerts: a
// congested monitoring interval, freeze-flagged.
type AlertJSON struct {
	Server string `json:"server"`
	// AtMicros is the interval's start time in microseconds of trace
	// time.
	AtMicros int64 `json:"at_us"`
	// Load and ThroughputPerSec are the interval's measurements.
	Load             float64 `json:"load"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// State is the provisional classification at close time; Freeze
	// marks a congested interval with near-zero throughput (a POI).
	State  string `json:"state"`
	Freeze bool   `json:"freeze"`
	// Verdict is the server's top root-cause verdict kind from the
	// latest published snapshot (see /report causes). Omitted before the
	// first snapshot or when the server has no verdict yet.
	Verdict string `json:"verdict,omitempty"`
}

// DroppedJSON is the payload of an SSE "dropped" event: how many alerts
// this subscriber lost to queue overflow since the last event.
type DroppedJSON struct {
	Dropped int64 `json:"dropped"`
}

// HealthJSON is the /healthz response.
type HealthJSON struct {
	// Status is "ok" or "stalled".
	Status string `json:"status"`
	// Shards samples every shard.
	Shards []ShardHealthJSON `json:"shards"`
}

// ShardHealthJSON is one shard's liveness sample in /healthz.
type ShardHealthJSON struct {
	Shard int `json:"shard"`
	// Queued is the shard's queued record count; LastActiveUnixMilli the
	// wall time it last finished a message. Stalled is true when queued
	// work has outlived the staleness bound without a heartbeat.
	Queued              int64 `json:"queued"`
	LastActiveUnixMilli int64 `json:"last_active_unix_ms"`
	Stalled             bool  `json:"stalled"`
}

// ReadyJSON is the /readyz response.
type ReadyJSON struct {
	// Ready mirrors the HTTP status: true with 200, false with 503.
	Ready bool `json:"ready"`
	// Reason states why the server is not ready, when it has one —
	// "resuming" while a restarted process replays the feed prefix its
	// checkpoint already covers. Omitted when ready (and on not-ready
	// states with no stated reason, e.g. before the first SetReady).
	Reason string `json:"reason,omitempty"`
}

// ErrorJSON is every non-2xx JSON body.
type ErrorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-body: nothing to do
}

func stateString(st core.IntervalState) string {
	switch st {
	case core.StateIdle:
		return "idle"
	case core.StateNormal:
		return "normal"
	case core.StateCongested:
		return "congested"
	default:
		return "unknown"
	}
}

func metricsJSON(m stream.Metrics) MetricsJSON {
	qd := m.QueueDepth
	if qd == nil {
		qd = []int64{}
	}
	return MetricsJSON{
		Shards:            m.Shards,
		Ingested:          m.Ingested,
		Dropped:           m.Dropped,
		Late:              m.Late,
		IntervalsClosed:   m.IntervalsClosed,
		Congested:         m.Congested,
		Freezes:           m.Freezes,
		Reestimates:       m.Reestimates,
		QueueDepth:        qd,
		Checkpoints:       m.Checkpoints,
		CheckpointsFailed: m.CheckpointsFailed,
		ShardRestarts:     m.ShardRestarts,
		DegradedShards:    m.DegradedShards,
		RecordsLost:       m.RecordsLost,
		AlertsLost:        m.AlertsLost,
		WatermarkMicros:   int64(m.Watermark),
		MaxDepartMicros:   int64(m.MaxDepart),
	}
}

// alertJSON converts a merged-stream alert for the SSE feed, annotated
// with the server's current top verdict kind ("" omits the field).
func alertJSON(a stream.Alert, verdict string) AlertJSON {
	return AlertJSON{
		Server:           a.Server,
		AtMicros:         int64(a.At),
		Load:             a.Load,
		ThroughputPerSec: a.TP,
		State:            stateString(a.State),
		Freeze:           a.POI,
		Verdict:          verdict,
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `tbdetect live serving layer

GET /metrics              Prometheus text-format self-metrics
GET /healthz              per-shard liveness (200 ok / 503 stalled)
GET /readyz               readiness bit (200 ready / 503 not ready)
GET /report               current merged snapshot, ranked worst-first (JSON)
GET /servers/{id}/series  one server's per-interval window series (JSON)
GET /alerts               congestion alert stream (Server-Sent Events)

See docs/api.md for the JSON shapes.
`)
}

// staleAfter is how long a shard may sit on queued work without a
// heartbeat before /healthz reports it stalled. An idle shard (empty
// queue) is never stalled.
const staleAfter = 10 * time.Second

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.Now()
	health := s.cfg.Health()
	resp := HealthJSON{Status: "ok", Shards: make([]ShardHealthJSON, 0, len(health))}
	code := http.StatusOK
	for _, h := range health {
		stalled := h.Queued > 0 && now.Sub(h.LastActive) > staleAfter
		if stalled {
			resp.Status = "stalled"
			code = http.StatusServiceUnavailable
		}
		resp.Shards = append(resp.Shards, ShardHealthJSON{
			Shard:               h.Shard,
			Queued:              h.Queued,
			LastActiveUnixMilli: h.LastActive.UnixMilli(),
			Stalled:             stalled,
		})
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, ReadyJSON{Ready: true})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, ReadyJSON{Ready: false, Reason: s.readyReason()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	pub := s.snap.Load()
	if pub == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorJSON{Error: "no snapshot published yet; the first interval may not have closed"})
		return
	}
	resp := ReportJSON{
		WatermarkMicros:    int64(pub.snap.At),
		PublishedUnixMilli: pub.at.UnixMilli(),
		Servers:            make([]ServerRankJSON, 0, len(pub.snap.Ranking)),
		Causes:             make([]CauseJSON, 0, len(pub.causes)),
		Metrics:            metricsJSON(pub.snap.Metrics),
	}
	for _, v := range pub.causes {
		resp.Causes = append(resp.Causes, CauseJSON{
			Kind:       string(v.Kind),
			Server:     v.Server,
			Confidence: v.Confidence,
			Score:      v.Score,
			Evidence:   v.Evidence,
		})
	}
	for _, ss := range pub.snap.Ranking {
		resp.Servers = append(resp.Servers, ServerRankJSON{
			Server:             ss.Server,
			NStar:              ss.NStar.NStar,
			TPMaxPerSec:        ss.NStar.TPMax,
			Saturated:          ss.NStar.Saturated,
			CongestedFraction:  ss.CongestedFraction,
			CongestedIntervals: ss.CongestedIntervals,
			Intervals:          len(ss.States),
			POIs:               len(ss.POIs),
			WindowStartMicros:  int64(ss.Window.Start),
			IntervalMicros:     int64(ss.Interval),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pub := s.snap.Load()
	if pub == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorJSON{Error: "no snapshot published yet; the first interval may not have closed"})
		return
	}
	for _, ss := range pub.snap.Ranking {
		if ss.Server != id {
			continue
		}
		states := make([]string, len(ss.States))
		for i, st := range ss.States {
			states[i] = stateString(st)
		}
		pois := ss.POIs
		if pois == nil {
			pois = []int{}
		}
		writeJSON(w, http.StatusOK, SeriesJSON{
			Server:         ss.Server,
			StartMicros:    int64(ss.Window.Start),
			IntervalMicros: int64(ss.Interval),
			NStar:          ss.NStar.NStar,
			TPMaxPerSec:    ss.NStar.TPMax,
			Load:           ss.Load.Values(),
			Throughput:     ss.TP.Values(),
			States:         states,
			POIs:           pois,
		})
		return
	}
	writeJSON(w, http.StatusNotFound,
		ErrorJSON{Error: fmt.Sprintf("no series for server %q in the current snapshot", id)})
}

// handleAlerts streams congestion alerts as Server-Sent Events. Each
// alert is an "alert" event; overflow since the previous event is
// reported as a "dropped" event; shutdown ends the stream with an "end"
// event. The handler exits when the client disconnects or the hub
// closes, so http.Server.Shutdown never hangs on a subscriber.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			ErrorJSON{Error: "streaming unsupported by this connection"})
		return
	}
	sub := s.hub.subscribe()
	if sub == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorJSON{Error: "shutting down"})
		return
	}
	defer s.hub.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": tbdetect congestion alert stream\n\n")
	fl.Flush()

	emitDropped := func() {
		if d := sub.dropped.Swap(0); d > 0 {
			data, _ := json.Marshal(DroppedJSON{Dropped: d})
			fmt.Fprintf(w, "event: dropped\ndata: %s\n\n", data)
		}
	}
	for {
		select {
		case a, open := <-sub.ch:
			if !open {
				emitDropped()
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				fl.Flush()
				return
			}
			emitDropped()
			data, _ := json.Marshal(alertJSON(a, s.verdictFor(a.Server)))
			fmt.Fprintf(w, "event: alert\ndata: %s\n\n", data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
