package transientbd

import (
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
)

// StreamConfig tunes a sharded streaming detector. The zero value runs
// one shard with the paper's online defaults (50 ms intervals, 2-minute
// window, 20 s re-estimation) and a 1 s flush lag. Each shard's input
// queue is bounded; when one fills, Observe blocks until the shard
// drains.
type StreamConfig struct {
	// OnlineConfig carries the detection knobs: interval, window,
	// re-estimation cadence, calibrated service times and raw-throughput
	// mode.
	OnlineConfig
	// Shards is the number of shard goroutines records are
	// hash-partitioned across by server. Default 1.
	Shards int
	// FlushLag is how far the interval-closing watermark trails the
	// newest departure observed; it must exceed the longest request
	// residence plus any feed reordering skew or late records lose their
	// contribution to sealed intervals. Default 1 s.
	FlushLag time.Duration

	// CheckpointDir, when non-empty, enables durable crash recovery: the
	// runtime periodically writes a consistent cut of every analyzer's
	// state (atomic write-then-rename, checksummed, two generations kept)
	// that a later NewStream with Resume can continue from.
	CheckpointDir string
	// CheckpointEvery is the trace-time between automatic checkpoints
	// (default 10 s of trace time when CheckpointDir is set). Checkpoints
	// are taken at watermark barriers, so every cut is consistent across
	// shards.
	CheckpointEvery time.Duration
	// Resume makes NewStream load the newest valid checkpoint in
	// CheckpointDir and continue from it; ResumeInfo reports what was
	// restored and how many records of the original feed to skip.
	// Corrupt checkpoint files fall back to the previous generation, then
	// to a cold start — never an error.
	Resume bool
}

// StreamResumeInfo describes what NewStream restored when
// StreamConfig.Resume was set.
type StreamResumeInfo struct {
	// Resumed reports whether a checkpoint was loaded; false means a cold
	// start (no checkpoint directory, no file, or none valid).
	Resumed bool
	// Watermark is the trace time of the restored cut.
	Watermark time.Duration
	// SkipRecords is the replay cursor: how many records of the original
	// feed (counting only records Observe accepted) are already
	// incorporated in the restored state. A caller re-reading the same
	// feed must skip that many acceptable records before resuming
	// Observe, or they are double-counted.
	SkipRecords int64
	// Warnings lists checkpoint files and per-server states skipped as
	// corrupt or incompatible during the resume.
	Warnings []string
}

// StreamMetrics is the runtime's self-metrics block: cumulative counters
// plus a point-in-time sample of each shard's queue depth. Divide the
// deltas of Ingested between two reads by the elapsed wall time for
// records/s.
type StreamMetrics struct {
	// Shards is the configured shard count.
	Shards int
	// Ingested counts records accepted into shard queues; Dropped counts
	// records a shard discarded for want of an analyzer (zero in a
	// healthy run); Late counts records that arrived after their
	// completion interval was sealed.
	Ingested, Dropped, Late int64
	// IntervalsClosed counts per-server interval closures; Congested and
	// Freezes count how many of those closed congested / as freezes.
	IntervalsClosed, Congested, Freezes int64
	// Reestimates counts N* refreshes across all servers.
	Reestimates int64
	// QueueDepth samples each shard's queued record count.
	QueueDepth []int64
	// Checkpoints and CheckpointsFailed count durable checkpoint cuts
	// written and checkpoint attempts abandoned (a failed attempt keeps
	// the previous file).
	Checkpoints, CheckpointsFailed int64
	// ShardRestarts counts shard quarantine/rebuild cycles after an
	// internal panic; DegradedShards counts shards that exhausted the
	// crash-loop budget and now drop records with accounting.
	ShardRestarts, DegradedShards int64
	// RecordsLost counts records whose contribution could not be replayed
	// during a shard rebuild (or was dropped by a degraded shard);
	// AlertsLost counts interval closures discarded because their shard
	// failed mid-barrier. Both stay zero in a healthy run: loss is always
	// accounted, never silent.
	RecordsLost, AlertsLost int64
}

// Stream is the online deployment mode of the method: attach it to a
// live passive-tracing feed instead of analyzing batches. Records are
// hash-partitioned by server across shard goroutines, each the single
// writer for its servers' bounded sliding windows; bounded queues apply
// backpressure; a merger emits one globally time-ordered alert stream;
// and Snapshot/Close reclassify every window batch-style into a ranked
// Report.
//
// Observe, Advance, Snapshot and Close must be called from one
// goroutine. Alerts must be drained (a blocked alert consumer eventually
// backpressures ingestion); Metrics is safe from any goroutine.
//
// Alerts are the provisional real-time view: each classifies against the
// N* current when its interval closed, so roughly the first Window of
// alerts rides on a provisional estimate while the sliding window warms
// up. The Report from Snapshot/Close re-judges every interval still in
// the window with the batch decision stage; while the window covers the
// whole stream it is identical to Analyze of the same records.
type Stream struct {
	rt     *stream.Runtime
	alerts chan OnlineAlert
	closed bool
	final  *Report
}

// ErrClosed is returned by Observe, Advance and Checkpoint after Close
// or Abort. Check with errors.Is.
var ErrClosed = stream.ErrClosed

// NewStream starts the sharded runtime. Close must be called to release
// its goroutines.
func NewStream(cfg StreamConfig) (*Stream, error) {
	online, err := cfg.OnlineConfig.coreOptions()
	if err != nil {
		return nil, err
	}
	rt, err := stream.New(stream.Config{
		Online:          online,
		Shards:          cfg.Shards,
		FlushLag:        simnet.FromStdDuration(cfg.FlushLag),
		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: simnet.FromStdDuration(cfg.CheckpointEvery),
		Resume:          cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	s := &Stream{rt: rt, alerts: make(chan OnlineAlert, 256)}
	go func() {
		defer close(s.alerts)
		for a := range rt.Alerts() {
			s.alerts <- OnlineAlert{
				Server:     a.Server,
				Time:       simnet.Std(simnet.Duration(a.At)),
				Load:       a.Load,
				Throughput: a.TP,
				Congested:  a.State == core.StateCongested,
				Freeze:     a.POI,
			}
		}
	}()
	return s, nil
}

// Observe ingests one completed record, routing it to its server's
// shard. The watermark advances automatically as the trace clock moves.
func (s *Stream) Observe(r Record) error {
	if err := validateRecord(0, &r); err != nil {
		return err
	}
	return s.rt.Observe(recordToVisit(&r))
}

// Advance manually moves the watermark to now, closing every interval
// ending at or before it. Useful when the feed goes quiet and the
// trace clock stalls; Observe advances automatically otherwise. Returns
// ErrClosed after Close or Abort.
func (s *Stream) Advance(now time.Duration) error {
	if s.closed {
		return ErrClosed
	}
	s.rt.Advance(simnet.FromStdDuration(now))
	return nil
}

// Checkpoint takes an explicit consistent cut covering every record
// accepted so far and, when CheckpointDir is set, writes it durably. A
// returned error means the cut was abandoned; the previous checkpoint
// file, if any, stays valid. Returns ErrClosed after Close or Abort.
func (s *Stream) Checkpoint() error {
	if s.closed {
		return ErrClosed
	}
	return s.rt.Checkpoint()
}

// Abort hard-stops the stream without sealing intervals, emitting final
// alerts or writing a final checkpoint — the shutdown shape of a crash.
// State persisted by earlier checkpoints stays on disk for a later
// NewStream with Resume. Idempotent; a no-op after Close; Close after
// Abort returns nil.
func (s *Stream) Abort() {
	if s.closed {
		return
	}
	s.rt.Abort()
	s.closed = true
}

// ResumeInfo reports what NewStream restored when StreamConfig.Resume
// was set (the zero value for a cold start).
func (s *Stream) ResumeInfo() StreamResumeInfo {
	info := s.rt.ResumeInfo()
	return StreamResumeInfo{
		Resumed:     info.Resumed,
		Watermark:   simnet.Std(simnet.Duration(info.Watermark)),
		SkipRecords: info.SkipRecords,
		Warnings:    info.Warnings,
	}
}

// Alerts returns the merged, time-ordered alert stream. Closed by Close
// after the final intervals flush.
func (s *Stream) Alerts() <-chan OnlineAlert { return s.alerts }

// Metrics returns a snapshot of the runtime's self-metrics counters.
func (s *Stream) Metrics() StreamMetrics {
	m := s.rt.Metrics()
	return StreamMetrics{
		Shards:          m.Shards,
		Ingested:        m.Ingested,
		Dropped:         m.Dropped,
		Late:            m.Late,
		IntervalsClosed: m.IntervalsClosed,
		Congested:       m.Congested,
		Freezes:         m.Freezes,
		Reestimates:     m.Reestimates,
		QueueDepth:      m.QueueDepth,

		Checkpoints:       m.Checkpoints,
		CheckpointsFailed: m.CheckpointsFailed,
		ShardRestarts:     m.ShardRestarts,
		DegradedShards:    m.DegradedShards,
		RecordsLost:       m.RecordsLost,
		AlertsLost:        m.AlertsLost,
	}
}

// Snapshot returns the ranked bottleneck report over every server's
// current sliding window — the streaming counterpart of Analyze's
// Report (Quality is nil; degraded-feed accounting lives in Metrics).
// Servers with no closed intervals yet are omitted. Returns nil before
// any interval has closed.
func (s *Stream) Snapshot() *Report {
	return convertStreamSnapshot(s.rt.Snapshot())
}

// Close seals the stream: every interval with data is closed and its
// alerts emitted, the alert channel is closed, the shard and merger
// goroutines stop, and the final report is returned. Close is
// idempotent. The alert channel must still be drained (or already have a
// consumer) for Close to complete.
func (s *Stream) Close() *Report {
	if !s.closed {
		s.final = convertStreamSnapshot(s.rt.Close())
		s.closed = true
	}
	return s.final
}

// convertStreamSnapshot is newReport over a runtime snapshot's ranking
// and call graph; nil before any interval has closed.
func convertStreamSnapshot(snap *stream.Snapshot) *Report {
	if snap == nil || len(snap.Ranking) == 0 {
		return nil
	}
	return newReport(snap.Ranking, snap.Graph)
}
