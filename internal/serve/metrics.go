package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"transientbd/internal/merge"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
)

// promMetric is one exported metric family: name, type, help, and a
// renderer for its sample lines. The table is ordered and append-only —
// dashboards and alerting rules key on these names, so
// TestMetricNameStability pins them.
type promMetric struct {
	name, kind, help string
	render           func(s *Server, m stream.Metrics, w *strings.Builder)
}

func sample(w *strings.Builder, name string, v int64) {
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(v, 10))
	w.WriteByte('\n')
}

func sampleF(w *strings.Builder, name string, v float64) {
	fmt.Fprintf(w, "%s %g\n", name, v)
}

func intMetric(name string, get func(s *Server, m stream.Metrics) int64) func(*Server, stream.Metrics, *strings.Builder) {
	return func(s *Server, m stream.Metrics, w *strings.Builder) { sample(w, name, get(s, m)) }
}

// promTable is the full exported metric set, in output order.
var promTable = []promMetric{
	{"tbdetect_shards", "gauge", "Configured shard goroutine count.",
		intMetric("tbdetect_shards", func(_ *Server, m stream.Metrics) int64 { return int64(m.Shards) })},
	{"tbdetect_records_ingested_total", "counter", "Records accepted into shard queues.",
		intMetric("tbdetect_records_ingested_total", func(_ *Server, m stream.Metrics) int64 { return m.Ingested })},
	{"tbdetect_records_dropped_total", "counter", "Records a shard discarded for want of an analyzer (zero in a healthy run).",
		intMetric("tbdetect_records_dropped_total", func(_ *Server, m stream.Metrics) int64 { return m.Dropped })},
	{"tbdetect_records_late_total", "counter", "Records that arrived after their completion interval was sealed.",
		intMetric("tbdetect_records_late_total", func(_ *Server, m stream.Metrics) int64 { return m.Late })},
	{"tbdetect_records_lost_total", "counter", "Records lost to shard rebuilds or degraded shards (accounted, never silent).",
		intMetric("tbdetect_records_lost_total", func(_ *Server, m stream.Metrics) int64 { return m.RecordsLost })},
	{"tbdetect_intervals_closed_total", "counter", "Per-server monitoring interval closures.",
		intMetric("tbdetect_intervals_closed_total", func(_ *Server, m stream.Metrics) int64 { return m.IntervalsClosed })},
	{"tbdetect_intervals_congested_total", "counter", "Interval closures classified congested.",
		intMetric("tbdetect_intervals_congested_total", func(_ *Server, m stream.Metrics) int64 { return m.Congested })},
	{"tbdetect_freezes_total", "counter", "Congested interval closures with near-zero throughput (POIs).",
		intMetric("tbdetect_freezes_total", func(_ *Server, m stream.Metrics) int64 { return m.Freezes })},
	{"tbdetect_nstar_reestimates_total", "counter", "N* re-estimations across all servers.",
		intMetric("tbdetect_nstar_reestimates_total", func(_ *Server, m stream.Metrics) int64 { return m.Reestimates })},
	{"tbdetect_checkpoints_written_total", "counter", "Durable checkpoint cuts written.",
		intMetric("tbdetect_checkpoints_written_total", func(_ *Server, m stream.Metrics) int64 { return m.Checkpoints })},
	{"tbdetect_checkpoints_failed_total", "counter", "Checkpoint attempts abandoned (the previous file is kept).",
		intMetric("tbdetect_checkpoints_failed_total", func(_ *Server, m stream.Metrics) int64 { return m.CheckpointsFailed })},
	{"tbdetect_checkpoint_age_seconds", "gauge", "Wall-clock seconds since the last successful checkpoint (absent before the first).",
		func(s *Server, m stream.Metrics, w *strings.Builder) {
			if m.LastCheckpointWall > 0 {
				sampleF(w, "tbdetect_checkpoint_age_seconds",
					s.cfg.Now().Sub(time.Unix(0, m.LastCheckpointWall)).Seconds())
			}
		}},
	{"tbdetect_shard_restarts_total", "counter", "Shard quarantine/rebuild cycles after a panic.",
		intMetric("tbdetect_shard_restarts_total", func(_ *Server, m stream.Metrics) int64 { return m.ShardRestarts })},
	{"tbdetect_degraded_shards", "gauge", "Shards past the crash-loop budget, now dropping with accounting.",
		intMetric("tbdetect_degraded_shards", func(_ *Server, m stream.Metrics) int64 { return m.DegradedShards })},
	{"tbdetect_alerts_lost_total", "counter", "Interval closures discarded because their shard failed mid-barrier.",
		intMetric("tbdetect_alerts_lost_total", func(_ *Server, m stream.Metrics) int64 { return m.AlertsLost })},
	{"tbdetect_shard_queue_depth", "gauge", "Queued records per shard.",
		func(_ *Server, m stream.Metrics, w *strings.Builder) {
			for i, d := range m.QueueDepth {
				fmt.Fprintf(w, "tbdetect_shard_queue_depth{shard=%q} %d\n", strconv.Itoa(i), d)
			}
		}},
	{"tbdetect_watermark_lag_seconds", "gauge", "Trace-time gap between the newest departure and the interval-closing watermark.",
		func(_ *Server, m stream.Metrics, w *strings.Builder) {
			lag := float64(m.MaxDepart-m.Watermark) / 1e6
			if m.MaxDepart == 0 || lag < 0 {
				lag = 0
			}
			sampleF(w, "tbdetect_watermark_lag_seconds", lag)
		}},
	{"tbdetect_snapshot_age_seconds", "gauge", "Wall-clock seconds since the last published /report snapshot (absent before the first).",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			if pub := s.snap.Load(); pub != nil {
				sampleF(w, "tbdetect_snapshot_age_seconds", s.cfg.Now().Sub(pub.at).Seconds())
			}
		}},
	{"tbdetect_ready", "gauge", "Readiness bit: 1 while ingesting, 0 during startup and drain.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			v := int64(0)
			if s.ready.Load() {
				v = 1
			}
			sample(w, "tbdetect_ready", v)
		}},
	{"tbdetect_sse_subscribers", "gauge", "Currently connected /alerts subscribers.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			sample(w, "tbdetect_sse_subscribers", int64(s.hub.count()))
		}},
	{"tbdetect_sse_published_total", "counter", "Alerts offered to the /alerts fan-out.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			sample(w, "tbdetect_sse_published_total", s.hub.totalPublished.Load())
		}},
	{"tbdetect_sse_dropped_total", "counter", "Alerts lost to full subscriber queues, across all subscribers.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			sample(w, "tbdetect_sse_dropped_total", s.hub.totalDropped.Load())
		}},

	// Multi-node ingestion families (tbdetect merge). Sampled only when
	// Config.Nodes is set; a single-process follow server emits the
	// HELP/TYPE headers with no samples, like checkpoint_age before the
	// first checkpoint.
	{"tbdetect_nodes", "gauge", "Ingestion nodes known to the merge head.",
		nodeTotal("tbdetect_nodes", func(_ merge.NodeStatus) bool { return true })},
	{"tbdetect_nodes_connected", "gauge", "Ingestion nodes with a currently open agent session.",
		nodeTotal("tbdetect_nodes_connected", func(n merge.NodeStatus) bool { return n.Connected })},
	{"tbdetect_nodes_degraded", "gauge", "Ingestion nodes silent past the heartbeat timeout, no longer holding back the barrier.",
		nodeTotal("tbdetect_nodes_degraded", func(n merge.NodeStatus) bool { return n.Degraded })},
	{"tbdetect_node_connected", "gauge", "Per-node connection bit: 1 with an open agent session.",
		nodeGauge("tbdetect_node_connected", func(n merge.NodeStatus) int64 { return boolBit(n.Connected) })},
	{"tbdetect_node_degraded", "gauge", "Per-node degrade bit: 1 while silent past the heartbeat timeout.",
		nodeGauge("tbdetect_node_degraded", func(n merge.NodeStatus) int64 { return boolBit(n.Degraded) })},
	{"tbdetect_node_reconnects_total", "counter", "Agent sessions beyond the first, per node (each one a reconnect).",
		nodeGauge("tbdetect_node_reconnects_total", func(n merge.NodeStatus) int64 { return max(n.Sessions-1, 0) })},
	{"tbdetect_node_records_delivered_total", "counter", "Records applied from this node (after dedup).",
		nodeGauge("tbdetect_node_records_delivered_total", func(n merge.NodeStatus) int64 { return n.Delivered })},
	{"tbdetect_node_records_deduped_total", "counter", "Records skipped as retransmissions of already-applied batches.",
		nodeGauge("tbdetect_node_records_deduped_total", func(n merge.NodeStatus) int64 { return n.Deduped })},
	{"tbdetect_node_records_dropped_total", "counter", "Records dropped behind the release point after a degrade (exact loss accounting).",
		nodeGauge("tbdetect_node_records_dropped_total", func(n merge.NodeStatus) int64 { return n.Dropped })},
	{"tbdetect_node_records_invalid_total", "counter", "Records rejected by validation, per node.",
		nodeGauge("tbdetect_node_records_invalid_total", func(n merge.NodeStatus) int64 { return n.Invalid })},
	{"tbdetect_node_records_buffered", "gauge", "Records delivered by this node but not yet released by the barrier.",
		nodeGauge("tbdetect_node_records_buffered", func(n merge.NodeStatus) int64 { return n.Buffered })},
	{"tbdetect_node_watermark_lag_seconds", "gauge", "Trace-time gap between the newest node watermark and this node's.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			nodes := s.nodeStatuses()
			var lead simnet.Time
			for _, n := range nodes {
				if n.Watermark > lead {
					lead = n.Watermark
				}
			}
			for _, n := range nodes {
				fmt.Fprintf(w, "tbdetect_node_watermark_lag_seconds{node=%q} %g\n",
					n.Node, float64(lead-n.Watermark)/1e6)
			}
		}},
	{"tbdetect_node_silence_seconds", "gauge", "Wall-clock seconds since this node's last frame (absent before the first).",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			for _, n := range s.nodeStatuses() {
				if n.LastFrameWall > 0 {
					fmt.Fprintf(w, "tbdetect_node_silence_seconds{node=%q} %g\n",
						n.Node, s.cfg.Now().Sub(time.Unix(0, n.LastFrameWall)).Seconds())
				}
			}
		}},

	// Durable-agent families. The WAL gauges mirror each agent's
	// self-reported heartbeat state (absent for agents without -wal only
	// in the sense of reading zero; samples render for every node).
	// peers_rejected is sampled only when Config.PeersRejected is set —
	// a head running without a shared key emits the headers with no
	// sample, like the node families in follow mode.
	{"tbdetect_peers_rejected_total", "counter", "Inbound peers rejected for failing authentication (wrong shared key or pre-auth protocol).",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			if s.cfg.PeersRejected == nil {
				return
			}
			sample(w, "tbdetect_peers_rejected_total", s.cfg.PeersRejected())
		}},
	{"tbdetect_agent_wal_depth", "gauge", "Batches appended to this agent's write-ahead log but not yet acknowledged by the head.",
		nodeGauge("tbdetect_agent_wal_depth", func(n merge.NodeStatus) int64 { return n.WALDepth })},
	{"tbdetect_agent_wal_segments", "gauge", "On-disk write-ahead-log segment files held by this agent.",
		nodeGauge("tbdetect_agent_wal_segments", func(n merge.NodeStatus) int64 { return n.WALSegments })},
	{"tbdetect_agent_wal_spilling", "gauge", "Spill bit: 1 while this agent is absorbing backlog on disk beyond its send window.",
		nodeGauge("tbdetect_agent_wal_spilling", func(n merge.NodeStatus) int64 { return boolBit(n.Spilling) })},

	// Root-cause attribution family: one sample per ranked verdict in
	// the latest published snapshot (absent before the first snapshot or
	// when no server congested enough to fingerprint).
	{"tbdetect_cause_confidence", "gauge", "Root-cause verdict confidence from the latest published snapshot, labeled by server and cause kind.",
		func(s *Server, _ stream.Metrics, w *strings.Builder) {
			pub := s.snap.Load()
			if pub == nil {
				return
			}
			for _, v := range pub.causes {
				fmt.Fprintf(w, "tbdetect_cause_confidence{server=%q,kind=%q} %g\n",
					v.Server, v.Kind, v.Confidence)
			}
		}},
}

// nodeStatuses samples Config.Nodes, nil-safe.
func (s *Server) nodeStatuses() []merge.NodeStatus {
	if s.cfg.Nodes == nil {
		return nil
	}
	return s.cfg.Nodes()
}

// nodeTotal renders an unlabeled gauge counting nodes matching pred —
// but only when a node source is configured, so a follow-mode scrape
// is unchanged.
func nodeTotal(name string, pred func(merge.NodeStatus) bool) func(*Server, stream.Metrics, *strings.Builder) {
	return func(s *Server, _ stream.Metrics, w *strings.Builder) {
		if s.cfg.Nodes == nil {
			return
		}
		var total int64
		for _, n := range s.nodeStatuses() {
			if pred(n) {
				total++
			}
		}
		sample(w, name, total)
	}
}

// nodeGauge renders one sample per node, labeled {node="..."}.
func nodeGauge(name string, get func(merge.NodeStatus) int64) func(*Server, stream.Metrics, *strings.Builder) {
	return func(s *Server, _ stream.Metrics, w *strings.Builder) {
		for _, n := range s.nodeStatuses() {
			fmt.Fprintf(w, "%s{node=%q} %d\n", name, n.Node, get(n))
		}
	}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// MetricNames lists every exported metric family name, in output order
// (the stability contract TestMetricNameStability pins).
func MetricNames() []string {
	names := make([]string, len(promTable))
	for i, m := range promTable {
		names[i] = m.name
	}
	return names
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Metrics()
	var b strings.Builder
	for _, pm := range promTable {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", pm.name, pm.help, pm.name, pm.kind)
		pm.render(s, m, &b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck // client gone mid-body
}
