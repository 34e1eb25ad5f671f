// Package stream is the sharded online detection runtime: the deployment
// shape of the paper's method when the detector is attached to a live
// passive-tracing feed instead of a batch trace file.
//
// Records are hash-partitioned by server across N shard goroutines. Each
// shard owns the per-server streaming analyzers (core.Online) for the
// servers that hash to it, so every server's sliding-window state has
// exactly one writer and no locks. Shards are fed through bounded
// channels that block the producer when full (lossless backpressure),
// and a merger turns the per-shard interval closures into one globally
// time-ordered alert stream.
//
// Interval closing is driven by a watermark on the trace clock: the
// runtime closes intervals ending at or before maxDepart−FlushLag, so
// stragglers and cross-shard interleaving have FlushLag of slack to land
// before their interval is sealed. Records that arrive after their
// completion interval closed are counted as late; their contribution to
// already-sealed intervals is lost (the contribution to still-open
// intervals is kept).
//
// # One result with the batch path
//
// The runtime's Snapshot ranks one core.Analysis per server — the type
// the batch AnalyzeServer returns, built by core.Online.Snapshot from the
// intervals still inside the sliding window, with an N* estimated from
// all of them at once. While the window still covers the whole stream, a
// final Snapshot is bit-identical to batch analysis of the same visits
// (given the same calibrated service-time table), at any shard count and
// any input interleaving. Live alerts are the provisional real-time view:
// they classify with the N* current at close time, so the first window of
// alerts rides on a provisional estimate (the warm-up caveat).
//
// # Concurrency
//
// Observe, Advance, Snapshot and Close form the producer API and must be
// called from one goroutine (or be externally serialized) — the
// single-writer contract of core.Online, lifted one level up. Alerts()
// and Metrics() are safe from any goroutine. The caller must drain
// Alerts(); an undrained alert stream eventually backpressures the whole
// runtime (merger, then shards, then Observe).
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

const (
	// batchSize is how many records the producer accumulates per shard
	// before enqueueing: big enough to amortize channel transfer on the
	// ingest hot path, small enough to keep latency low.
	batchSize = 256
	// queueDepth bounds each shard's input queue, in records. Enqueueing
	// happens in batches, so the bound is approximate within one batch; a
	// full queue blocks Observe until the shard drains — lossless, the
	// ingest feed absorbs the stall.
	queueDepth = 8192
	// retainCap bounds the records a shard keeps for crash replay between
	// checkpoint cuts (see supervisor.go).
	retainCap = 4 * queueDepth
	// barrierEvery is the automatic watermark cadence in intervals: the
	// trace clock must earn at least this many closable intervals before
	// Observe broadcasts a barrier, which then closes all of them at
	// once (400 ms at 50 ms intervals). A barrier costs two messages per
	// shard plus a merger epoch, so per-interval barriers make the
	// barrier fan-out — not the analyzers — the scaling ceiling at high
	// shard counts. The interval series are identical at any cadence for
	// a feed whose disorder stays within FlushLag, but with self-estimated
	// service times the table each completion is normalized with is
	// rebuilt only as intervals close, from the delays counted by the
	// barrier that closed them, so the cadence is part of what the
	// throughput series and live classifications depend on — which is why
	// it is one fixed value and not a setting. Final Snapshot reclassification
	// is cadence-independent. Explicit Advance and Close are not
	// coalesced.
	barrierEvery = 8
	// maxShardRestarts is the crash-loop budget per shard: beyond it a
	// panicking shard is degraded to drop-with-accounting instead of
	// being rebuilt again (the merger and the other shards keep running).
	maxShardRestarts = 8
)

// Config tunes the runtime. The zero value runs one shard with the core
// online defaults (50 ms intervals, 2-minute window, 20 s re-estimation)
// and a 1 s flush lag.
type Config struct {
	// Online configures each per-server streaming analyzer.
	Online core.OnlineOptions
	// Shards is the number of shard goroutines records are partitioned
	// across by server hash. Default 1.
	Shards int
	// FlushLag is how far the interval-closing watermark trails the
	// newest departure timestamp observed. It must exceed the longest
	// request residence plus any cross-feed reordering skew, or late
	// records lose their contribution to sealed intervals. Default 1 s.
	FlushLag simnet.Duration

	// CheckpointDir, when non-empty, enables durable checkpoints: the
	// runtime periodically writes a consistent cut of every analyzer's
	// state (atomic write-then-rename, CRC-protected, the two newest
	// files kept) that a later runtime can Resume from.
	CheckpointDir string
	// CheckpointEvery is the trace-time between automatic checkpoints,
	// taken at watermark barriers so every checkpoint is a consistent
	// cut across shards. Default 10 s of trace time when CheckpointDir
	// is set. With no CheckpointDir, a non-zero cadence still refreshes
	// each shard's in-memory recovery state (bounding both replay memory
	// and the data a shard restart can roll back).
	CheckpointEvery simnet.Duration
	// Resume makes New load the newest valid checkpoint in CheckpointDir
	// and continue from it: analyzer states, watermark, epoch and
	// self-metrics counters are restored, and ResumeInfo reports the
	// replay cursor (how many records of the original feed are already
	// incorporated and must be skipped). Corrupt checkpoint files fall
	// back to the previous one, then to a cold start — never a crash.
	Resume bool
	// Hooks are optional fault-injection points used by the chaos
	// harness; see Hooks. Nil fields are free.
	Hooks Hooks
}

// Hooks are fault-injection points for chaos testing. Observe and Advance
// run on shard goroutines under the supervisor — a panic there exercises
// quarantine/rebuild/replay exactly like a real defect would (hooks are
// not re-invoked while recovery replays retained batches).
type Hooks struct {
	// Observe runs before each record is applied to its shard's analyzer.
	// v is the record in place: what the hook rewrites is what the
	// analyzer ingests and what crash replay re-applies.
	Observe func(shard int, v *trace.Visit)
	// Advance runs when a shard starts processing a watermark barrier.
	Advance func(shard int, mark simnet.Time)
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.FlushLag <= 0 {
		c.FlushLag = simnet.Second
	}
	if c.Online.Options.Interval <= 0 {
		c.Online.Options.Interval = 50 * simnet.Millisecond
	}
	if c.CheckpointDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10 * simnet.Second
	}
}

// Alert reports one closed monitoring interval at one server. The merged
// stream is ordered by (At, Server) within each watermark epoch; with an
// adequate FlushLag epochs themselves are time-ordered, so the stream is
// globally ordered.
type Alert struct {
	// Server is the reporting server.
	Server string
	// At is the interval's start time.
	At simnet.Time
	// Load and TP are the interval's measurements.
	Load, TP float64
	// State is the provisional classification (against the N* current at
	// close time); POI marks a congested interval with near-zero
	// throughput.
	State core.IntervalState
	POI   bool
}

// Metrics is the runtime's self-observation block: cumulative counters
// (atomic snapshots, safe to read while the runtime ingests) plus a
// point-in-time sample of each shard's queue depth.
type Metrics struct {
	// Shards is the configured shard count.
	Shards int
	// Ingested counts records accepted into shard queues; Dropped counts
	// records a shard discarded because it could not build their server's
	// analyzer (zero unless config validation has a defect); Late counts
	// records whose departure preceded the watermark when the shard
	// dequeued them (their sealed-interval contribution is lost).
	Ingested, Dropped, Late int64
	// IntervalsClosed counts per-server interval closures; Congested and
	// Freezes count how many of those closed congested / as POIs.
	IntervalsClosed, Congested, Freezes int64
	// Reestimates counts N* refreshes across all servers.
	Reestimates int64
	// QueueDepth samples each shard's queued record count.
	QueueDepth []int64
	// Checkpoints and CheckpointsFailed count checkpoint cuts written
	// and checkpoint attempts abandoned (a shard could not serialize, or
	// the write failed); a failed attempt keeps the previous file.
	Checkpoints, CheckpointsFailed int64
	// ShardRestarts counts shard quarantine/rebuild cycles after a
	// panic; DegradedShards counts shards that exhausted the crash-loop
	// budget and now drop records with accounting.
	ShardRestarts, DegradedShards int64
	// RecordsLost counts records whose contribution was rolled back and
	// could not be replayed during a shard rebuild (or was dropped by a
	// degraded shard); AlertsLost counts interval closures discarded
	// because their shard failed mid-barrier. Both are zero in a healthy
	// run: any loss is accounted, never silent.
	RecordsLost, AlertsLost int64
	// Watermark is the current interval-closing watermark; MaxDepart is
	// the newest departure timestamp observed. Their difference is the
	// watermark lag — how much trace time is still open behind the
	// freshest data (at least FlushLag in steady state).
	Watermark, MaxDepart simnet.Time
	// LastCheckpointWall is the wall-clock time (UnixNano) of the newest
	// successful durable checkpoint, zero if none has been written (or
	// restored) yet. Exposed so a serving layer can report checkpoint
	// age without touching the producer.
	LastCheckpointWall int64
}

// String renders the block in the expvar-ish "name value" form the CLI
// prints.
func (m Metrics) String() string {
	depths := ""
	for i, d := range m.QueueDepth {
		if i > 0 {
			depths += " "
		}
		depths += fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf(`stream metrics:
  shards                 %d
  records ingested       %d
  records dropped        %d
  records late           %d
  intervals closed       %d
  congested intervals    %d
  freeze intervals       %d
  nstar re-estimations   %d
  queue depth per shard  [%s]
  checkpoints written    %d
  checkpoints failed     %d
  shard restarts         %d
  degraded shards        %d
  records lost           %d
  alerts lost            %d
`, m.Shards, m.Ingested, m.Dropped, m.Late,
		m.IntervalsClosed, m.Congested, m.Freezes, m.Reestimates, depths,
		m.Checkpoints, m.CheckpointsFailed, m.ShardRestarts, m.DegradedShards,
		m.RecordsLost, m.AlertsLost)
}

// Snapshot is a point-in-time ranked view of the whole system — the
// streaming counterpart of core.SystemAnalysis: every tracked server's
// window reclassified batch-style and ranked by congested fraction,
// worst first.
type Snapshot struct {
	// At is the watermark at snapshot time.
	At simnet.Time
	// Ranking lists each server's window reclassified by
	// core.Online.Snapshot, worst first (core.SortWorstFirst). Servers
	// with no closed intervals yet are omitted.
	Ranking []*core.Analysis
	// Graph is the caller → callees server map derived from every
	// observed visit's transaction linkage (trace.CallGraphBuilder); nil
	// when no visit carried a TxnID. It is the snapshot's own copy.
	Graph map[string][]string
	// Metrics is the runtime's counter block at snapshot time.
	Metrics Metrics
}

// shardMsg is the single message type on a shard's input channel: a
// record batch, a watermark barrier (epoch > 0, optionally carrying a
// checkpoint request so the cut lands exactly on the barrier), a
// snapshot request, or a standalone checkpoint request.
type shardMsg struct {
	batch *recordBatch
	epoch int64
	now   simnet.Time
	snap  chan<- []*core.Analysis
	ckpt  chan<- shardCkptReply
}

// shardCkptReply is one shard's contribution to a checkpoint cut: its
// servers' marshaled analyzer states, or the error that prevented them.
type shardCkptReply struct {
	servers map[string][]byte
	err     error
}

// mergeMsg carries one shard's alerts for one watermark epoch. The alert
// buffer is pool-owned: the merger returns it via putAlerts after folding
// it into the epoch accumulator (nil for an abandoned, alert-less epoch).
type mergeMsg struct {
	epoch  int64
	alerts *[]Alert
}

// retainedBatch is a record batch kept after processing so a shard
// rebuild can replay it. The mark is the shard watermark the batch was
// originally processed under: replay anchors newly-seen servers at it,
// reproducing the original interval grid exactly.
type retainedBatch struct {
	mark simnet.Time
	recs *recordBatch
}

type shard struct {
	idx    int
	in     chan shardMsg
	queued atomic.Int64 // records enqueued but not yet processed
	// beat is the wall-clock UnixNano of the last message this shard
	// finished processing (its liveness heartbeat). A single atomic store
	// per message keeps the hot path lock- and allocation-free while
	// letting health probes detect a stalled shard from any goroutine.
	beat    atomic.Int64
	servers map[string]*core.Online
	names   []string // sorted keys of servers
	mark    simnet.Time
	acked   int64 // newest epoch acknowledged to the merger
	reSum   int64 // last reported Σ Reestimates, for delta accounting
	// coreBuf is the reused per-barrier scratch each analyzer's
	// AdvanceAppend writes into — no per-epoch slice growth in steady
	// state (shard goroutine only).
	coreBuf []core.Alert

	// Supervision state (shard goroutine only). lastCkpt holds every
	// server's marshaled state as of the last checkpoint cut; retained
	// holds the batches processed since, so a panic rolls back to the
	// cut and replays forward. gapRecs counts records evicted from
	// retention by the memory cap — unrecoverable if a rebuild happens
	// before the next checkpoint.
	lastCkpt     map[string][]byte
	retained     []retainedBatch
	retainedRecs int
	gapRecs      int64
	restarts     int
	degraded     bool
}

// Runtime is the sharded online detection runtime. See the package
// comment for the concurrency contract.
type Runtime struct {
	cfg    Config
	shards []*shard

	// Producer-goroutine state.
	pending      []*recordBatch
	maxDepart    simnet.Time
	mark         simnet.Time
	epoch        int64
	closed       bool
	final        *Snapshot
	ckptSeq      int64
	lastCkptMark simnet.Time
	resume       ResumeInfo
	graph        trace.CallGraphBuilder

	alerts  chan Alert
	merge   chan mergeMsg
	workers sync.WaitGroup
	done    chan struct{} // merger exit

	ingested, dropped, late      atomic.Int64
	closedIvals, congested, pois atomic.Int64
	reestimates                  atomic.Int64
	observed                     atomic.Int64 // replay cursor: records accepted by Observe
	ckptWrites, ckptFailed       atomic.Int64
	restarts, degradedShards     atomic.Int64
	recordsLost, alertsLost      atomic.Int64
	// Mirrors of producer-goroutine state for any-goroutine readers
	// (Metrics, a serving layer): the watermark, the newest departure,
	// and the wall time of the last durable checkpoint.
	markA, maxDepartA atomic.Int64
	lastCkptWall      atomic.Int64
}

// ShardHealth is one shard's liveness sample: how many records sit in
// its queue and when it last finished processing a message. A shard
// with queued work whose heartbeat has gone stale is stalled; an idle
// shard (empty queue) is healthy no matter how old its heartbeat, since
// it has nothing to wake up for. Safe from any goroutine.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int
	// Queued is the shard's current queued record count.
	Queued int64
	// LastActive is the wall-clock time the shard last finished a
	// message (or the runtime start, if it has processed none yet).
	LastActive time.Time
}

// ShardHealth samples every shard's liveness heartbeat. Safe from any
// goroutine, any time.
func (r *Runtime) ShardHealth() []ShardHealth {
	out := make([]ShardHealth, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardHealth{
			Shard:      i,
			Queued:     s.queued.Load(),
			LastActive: time.Unix(0, s.beat.Load()),
		}
	}
	return out
}

// ResumeInfo describes what New restored when Config.Resume was set.
type ResumeInfo struct {
	// Resumed reports whether a checkpoint was actually loaded; false
	// means a cold start (no checkpoint dir, no file, or none valid).
	Resumed bool
	// Watermark is the consistent cut the checkpoint represents.
	Watermark simnet.Time
	// SkipRecords is the replay cursor: how many records of the original
	// feed (in feed order, counting only records Observe accepted) are
	// already incorporated in the restored state. A caller re-reading
	// the same input must skip that many acceptable records before
	// resuming Observe, or they will be double-counted.
	SkipRecords int64
	// Warnings lists checkpoint files and per-server states that were
	// skipped as corrupt or incompatible during resume.
	Warnings []string
}

// New starts a runtime: cfg.Shards shard goroutines plus one merger.
// Close must be called to release them. With Config.Resume set, the
// newest valid checkpoint in Config.CheckpointDir is restored first;
// ResumeInfo reports what was loaded and the replay cursor.
func New(cfg Config) (*Runtime, error) {
	r, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	// Goroutines start only after any restore, so shard state needs no
	// locking in newRuntime.
	for _, s := range r.shards {
		r.workers.Add(1)
		go r.runShard(s)
	}
	go r.runMerger()
	return r, nil
}

// newRuntime builds (and, with Config.Resume, restores) a runtime
// without starting its goroutines. The white-box allocation-budget tests
// drive shard message handling synchronously through a runtime in this
// state; everything else uses New.
func newRuntime(cfg Config) (*Runtime, error) {
	cfg.applyDefaults()
	if cfg.Online.WindowIntervals != 0 {
		if err := core.CheckIntervals(int64(cfg.Online.WindowIntervals), core.MinWindowIntervals); err != nil {
			return nil, fmt.Errorf("stream: online %w", err)
		}
	}
	var st *checkpointState
	var warns []string
	if cfg.Resume {
		if cfg.CheckpointDir == "" {
			return nil, errors.New("stream: Resume requires CheckpointDir")
		}
		st, warns = loadLatestCheckpoint(cfg.CheckpointDir)
		if st != nil && st.Interval != cfg.Online.Options.Interval {
			return nil, fmt.Errorf("stream: checkpoint was written with interval %v, configured %v: config changes require a cold start (clear the checkpoint dir)",
				st.Interval, cfg.Online.Options.Interval)
		}
	}
	r := &Runtime{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		pending: make([]*recordBatch, cfg.Shards),
		alerts:  make(chan Alert, 1024),
		merge:   make(chan mergeMsg, cfg.Shards),
		done:    make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for i := range r.shards {
		r.shards[i] = &shard{
			idx:     i,
			in:      make(chan shardMsg, queueDepth/batchSize),
			servers: make(map[string]*core.Online),
		}
		r.shards[i].beat.Store(now)
	}
	if st != nil {
		warns = append(warns, r.restore(st)...)
	}
	r.resume.Warnings = warns
	return r, nil
}

// restore loads a checkpoint cut into the (not yet running) runtime,
// returning warnings for server states that could not be restored (those
// servers start cold).
func (r *Runtime) restore(st *checkpointState) []string {
	var warns []string
	r.epoch = st.Epoch
	r.mark = st.Mark
	r.maxDepart = st.MaxDepart
	r.markA.Store(int64(st.Mark))
	r.maxDepartA.Store(int64(st.MaxDepart))
	r.lastCkptWall.Store(time.Now().UnixNano())
	r.ckptSeq = st.Seq
	r.lastCkptMark = st.Mark
	r.observed.Store(st.Observed)
	r.ingested.Store(st.Ingested)
	r.dropped.Store(st.Dropped)
	r.late.Store(st.Late)
	r.closedIvals.Store(st.IntervalsClosed)
	r.congested.Store(st.Congested)
	r.pois.Store(st.POIs)
	r.reestimates.Store(st.Reestimates)
	r.graph.AddEdges(st.CallGraph)
	for name, blob := range st.Servers {
		s := r.shards[r.shardOf(name)]
		o, err := core.NewOnline(0, r.cfg.Online)
		if err == nil {
			err = o.RestoreState(blob)
		}
		if err != nil {
			warns = append(warns, fmt.Sprintf("server %q state not restored (cold start for it): %v", name, err))
			continue
		}
		if s.lastCkpt == nil {
			s.lastCkpt = make(map[string][]byte)
		}
		s.servers[name] = o
		s.names = append(s.names, name)
		s.lastCkpt[name] = blob
	}
	for _, s := range r.shards {
		sort.Strings(s.names)
		s.mark = st.Mark
		s.acked = st.Epoch
		var re int64
		for _, o := range s.servers {
			re += o.Reestimates()
		}
		s.reSum = re
	}
	r.resume = ResumeInfo{
		Resumed:     true,
		Watermark:   st.Mark,
		SkipRecords: st.Observed,
	}
	return warns
}

// ResumeInfo reports what New restored (zero value for a cold start).
func (r *Runtime) ResumeInfo() ResumeInfo { return r.resume }

// shardOf hashes a server name onto a shard index. Open-coded FNV-1a
// (same constants and result as hash/fnv) — this runs once per record,
// and the hash.Hash32 form costs two interface calls plus a []byte
// conversion per visit.
func (r *Runtime) shardOf(server string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(server); i++ {
		h ^= uint32(server[i])
		h *= prime32
	}
	return int(h % uint32(len(r.shards)))
}

// ErrClosed is returned by producer-API calls after Close or Abort.
var ErrClosed = errors.New("stream: runtime is closed")

// ValidateVisit reports whether Observe would accept v — the exact
// acceptance test, exported so a resuming caller can count acceptable
// records while skipping the replay cursor without feeding them in.
func ValidateVisit(v trace.Visit) error {
	if v.Server == "" {
		return errors.New("stream: visit has no server")
	}
	if v.Depart < v.Arrive {
		return fmt.Errorf("stream: visit at %q departs before it arrives", v.Server)
	}
	return nil
}

// Observe ingests one completed visit, batching it toward its server's
// shard and advancing the watermark when the trace clock has moved far
// enough. Single producer goroutine only. Every accepted record advances
// the replay cursor (ResumeInfo.SkipRecords of a later resumed run).
func (r *Runtime) Observe(v trace.Visit) error {
	if r.closed {
		return ErrClosed
	}
	if err := ValidateVisit(v); err != nil {
		return err
	}
	r.observed.Add(1)
	r.graph.Add(v)
	si := r.shardOf(v.Server)
	b := r.pending[si]
	if b == nil {
		b = getBatch()
		r.pending[si] = b
	}
	b.rows = append(b.rows, v)
	if len(b.rows) == batchSize {
		r.flush(si)
	}
	if v.Depart > r.maxDepart {
		r.maxDepart = v.Depart
		r.maxDepartA.Store(int64(v.Depart))
		iv := r.cfg.Online.Options.Interval
		if w := ((r.maxDepart - r.cfg.FlushLag) / iv) * iv; w >= r.mark+barrierEvery*iv {
			r.advance(w)
		}
	}
	return nil
}

// NextBarrier is the departure timestamp at which Observe will next
// broadcast a watermark barrier: no interval closes, and so no alert can
// fire, before a record departing at or after it has been observed. A
// producer may hold records back until it has one that does. Producer
// goroutine only.
func (r *Runtime) NextBarrier() simnet.Time {
	iv := r.cfg.Online.Options.Interval
	return r.mark + barrierEvery*iv + r.cfg.FlushLag
}

// flush enqueues shard si's pending batch, blocking while the shard's
// queue is full. The record count is captured before the send: once the
// batch is on the channel the shard owns it (and may recycle it to the
// pool).
func (r *Runtime) flush(si int) {
	batch := r.pending[si]
	if batch == nil || len(batch.rows) == 0 {
		return
	}
	n := int64(len(batch.rows))
	r.pending[si] = nil
	s := r.shards[si]
	s.in <- shardMsg{batch: batch}
	s.queued.Add(n)
	r.ingested.Add(n)
}

// Advance manually moves the watermark to now (floored to the interval
// grid), closing every interval ending at or before it on all shards.
// Useful when the feed's trace clock stalls (e.g. a quiet system) and the
// caller wants wall-clock-driven flushing; Observe advances automatically
// otherwise. Watermarks never move backwards.
func (r *Runtime) Advance(now simnet.Time) {
	if r.closed {
		return
	}
	iv := r.cfg.Online.Options.Interval
	w := (now / iv) * iv
	if w <= r.mark {
		return
	}
	r.advance(w)
}

// advance broadcasts watermark w (grid-aligned, > r.mark) to all shards.
// Watermark sends always block: losing one would desynchronize epochs.
// When the checkpoint cadence has elapsed, the barrier doubles as a
// checkpoint cut: the same message carries the checkpoint request, so
// the serialized state is exactly the post-barrier state at w.
//
// Every pending batch — full or partial — is delivered ahead of the
// barrier, unconditionally: it rides the barrier message itself, and the
// shard applies and retains it before processing the epoch. This keeps
// the delivery schedule a pure function of the feed and the barrier
// cadence — every record reaches its analyzer before the first barrier
// after it was observed, so nothing else (checkpoint cadence, snapshot
// timing, queue luck) can shift which records the self-estimator's
// histograms hold when a closing interval rebuilds the service table. A conditional flush
// here — e.g. holding back a batch whose records only touch intervals
// past w — changes classifications the moment anything else forces an
// early flush, which is exactly how a checkpointed run came to diverge
// from its own fault-free golden. Piggybacking instead of a separate
// send halves the barrier's per-shard message fan-out, the cost that
// made per-interval barriers the multi-shard scaling ceiling.
func (r *Runtime) advance(w simnet.Time) {
	ckpt := r.cfg.CheckpointEvery > 0 && w >= r.lastCkptMark+r.cfg.CheckpointEvery
	r.epoch++
	r.mark = w
	r.markA.Store(int64(w))
	var reply chan shardCkptReply
	if ckpt {
		reply = make(chan shardCkptReply, len(r.shards))
	}
	for si, s := range r.shards {
		msg := shardMsg{epoch: r.epoch, now: w, ckpt: reply}
		if b := r.pending[si]; b != nil && len(b.rows) > 0 {
			r.pending[si] = nil
			msg.batch = b
			n := int64(len(b.rows))
			s.queued.Add(n)
			r.ingested.Add(n)
		}
		s.in <- msg
	}
	if reply != nil {
		r.collectCheckpoint(reply) // best-effort: failure keeps the previous file
	}
}

// Checkpoint takes an explicit checkpoint cut covering every record
// accepted so far: pending batches are flushed, every shard serializes
// its analyzers behind them, and (when CheckpointDir is set) the cut is
// written durably. Producer goroutine only. The error reports a failed
// or skipped cut; the previous checkpoint file, if any, stays valid.
func (r *Runtime) Checkpoint() error {
	if r.closed {
		return ErrClosed
	}
	return r.checkpointNow()
}

// checkpointNow is Checkpoint without the closed-guard, so Close can
// write its final cut after sealing.
func (r *Runtime) checkpointNow() error {
	for si := range r.shards {
		r.flush(si)
	}
	reply := make(chan shardCkptReply, len(r.shards))
	for _, s := range r.shards {
		s.in <- shardMsg{ckpt: reply}
	}
	return r.collectCheckpoint(reply)
}

// collectCheckpoint gathers every shard's serialized state for one cut
// and writes the checkpoint file. A shard that could not serialize (or a
// failed write) abandons the cut with accounting — the previous file is
// kept, so resume falls back to an older consistent state rather than
// mixing generations.
func (r *Runtime) collectCheckpoint(reply chan shardCkptReply) error {
	servers := make(map[string][]byte)
	var firstErr error
	for range r.shards {
		rep := <-reply
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
		for name, blob := range rep.servers {
			servers[name] = blob
		}
	}
	if firstErr != nil {
		r.ckptFailed.Add(1)
		return fmt.Errorf("stream: checkpoint abandoned: %w", firstErr)
	}
	// An in-memory cut (no CheckpointDir) still resets the cadence and
	// has refreshed every shard's recovery state.
	r.lastCkptMark = r.mark
	if r.cfg.CheckpointDir == "" {
		return nil
	}
	st := checkpointState{
		Version:         ckptVersion,
		Seq:             r.ckptSeq + 1,
		Epoch:           r.epoch,
		Mark:            r.mark,
		MaxDepart:       r.maxDepart,
		Observed:        r.observed.Load(),
		Ingested:        r.ingested.Load(),
		Dropped:         r.dropped.Load(),
		Late:            r.late.Load(),
		IntervalsClosed: r.closedIvals.Load(),
		Congested:       r.congested.Load(),
		POIs:            r.pois.Load(),
		Reestimates:     r.reestimates.Load(),
		Interval:        r.cfg.Online.Options.Interval,
		Servers:         servers,
		CallGraph:       r.graph.Graph(),
	}
	if err := writeCheckpoint(r.cfg.CheckpointDir, st); err != nil {
		r.ckptFailed.Add(1)
		return fmt.Errorf("stream: checkpoint write: %w", err)
	}
	r.ckptSeq = st.Seq
	r.ckptWrites.Add(1)
	r.lastCkptWall.Store(time.Now().UnixNano())
	pruneCheckpoints(r.cfg.CheckpointDir, st.Seq-1)
	return nil
}

// Alerts returns the merged, time-ordered alert stream. The channel is
// closed by Close after the final intervals flush. The caller must drain
// it.
func (r *Runtime) Alerts() <-chan Alert { return r.alerts }

// Metrics returns a snapshot of the self-metrics counters. Safe from any
// goroutine, any time.
func (r *Runtime) Metrics() Metrics {
	m := Metrics{
		Shards:          len(r.shards),
		Ingested:        r.ingested.Load(),
		Dropped:         r.dropped.Load(),
		Late:            r.late.Load(),
		IntervalsClosed: r.closedIvals.Load(),
		Congested:       r.congested.Load(),
		Freezes:         r.pois.Load(),
		Reestimates:     r.reestimates.Load(),
		QueueDepth:      make([]int64, len(r.shards)),

		Checkpoints:       r.ckptWrites.Load(),
		CheckpointsFailed: r.ckptFailed.Load(),
		ShardRestarts:     r.restarts.Load(),
		DegradedShards:    r.degradedShards.Load(),
		RecordsLost:       r.recordsLost.Load(),
		AlertsLost:        r.alertsLost.Load(),

		Watermark:          simnet.Time(r.markA.Load()),
		MaxDepart:          simnet.Time(r.maxDepartA.Load()),
		LastCheckpointWall: r.lastCkptWall.Load(),
	}
	for i, s := range r.shards {
		m.QueueDepth[i] = s.queued.Load()
	}
	return m
}

// Snapshot flushes pending batches and returns the ranked batch-style
// reclassification of every shard's window. After Close it returns the
// final snapshot. Producer goroutine only.
func (r *Runtime) Snapshot() *Snapshot {
	if r.closed {
		return r.final
	}
	for si := range r.shards {
		r.flush(si)
	}
	reply := make(chan []*core.Analysis, len(r.shards))
	for _, s := range r.shards {
		s.in <- shardMsg{snap: reply}
	}
	var all []*core.Analysis
	for range r.shards {
		all = append(all, <-reply...)
	}
	core.SortWorstFirst(all)
	return &Snapshot{At: r.mark, Ranking: all, Graph: r.graph.Graph(), Metrics: r.Metrics()}
}

// Close seals the stream: it advances the watermark past the newest
// departure so every interval with data closes (and its alerts are
// emitted), takes the final snapshot, writes a final checkpoint cut
// (when CheckpointDir is set — best-effort, a failure keeps the previous
// file), stops the shards and the merger, and closes the alert channel.
// Close is idempotent; it returns the final snapshot. Producer goroutine
// only.
func (r *Runtime) Close() *Snapshot {
	if r.closed {
		return r.final
	}
	for si := range r.shards {
		r.flush(si)
	}
	if r.maxDepart > 0 || r.ingested.Load() > 0 {
		iv := r.cfg.Online.Options.Interval
		r.advance((r.maxDepart/iv + 1) * iv)
	}
	final := r.Snapshot()
	if r.cfg.CheckpointDir != "" {
		_ = r.checkpointNow()
	}
	r.stop()
	r.final = final
	return final
}

// Abort hard-stops the runtime without sealing intervals, emitting final
// alerts, or writing a final checkpoint — the shutdown shape of a crash,
// used by the chaos harness and by callers abandoning a stream whose
// state another run will Resume from the last checkpoint. Pending
// (unflushed) records are discarded. Idempotent; a no-op after Close.
func (r *Runtime) Abort() {
	if r.closed {
		return
	}
	r.stop()
}

// stop releases the shard and merger goroutines and closes the alert
// channel. The caller must still hold the producer role.
func (r *Runtime) stop() {
	for _, s := range r.shards {
		close(s.in)
	}
	r.workers.Wait()
	close(r.merge)
	<-r.done
	r.closed = true
}

// runMerger collects each epoch's alerts from all shards, orders them by
// (time, server) and emits them on the public alert channel. Per-shard
// channel FIFO guarantees epochs complete in order, so no reordering
// buffer is needed beyond the current epoch.
func (r *Runtime) runMerger() {
	defer close(r.done)
	defer close(r.alerts)
	type epochAcc struct {
		alerts []Alert
		got    int
	}
	acc := make(map[int64]*epochAcc)
	// Completed accumulators are recycled through a freelist (and shard
	// alert buffers returned to their pool), so the steady-state merge
	// loop reuses the same storage epoch after epoch.
	var free []*epochAcc
	var sorter alertSorter
	for msg := range r.merge {
		e := acc[msg.epoch]
		if e == nil {
			if n := len(free); n > 0 {
				e, free = free[n-1], free[:n-1]
			} else {
				e = &epochAcc{}
			}
			acc[msg.epoch] = e
		}
		if msg.alerts != nil {
			e.alerts = append(e.alerts, *msg.alerts...)
			putAlerts(msg.alerts)
		}
		e.got++
		if e.got < len(r.shards) {
			continue
		}
		delete(acc, msg.epoch)
		sorter.alerts = e.alerts
		sort.Sort(&sorter)
		sorter.alerts = nil
		for _, a := range e.alerts {
			r.alerts <- a
		}
		e.alerts, e.got = e.alerts[:0], 0
		free = append(free, e)
	}
}

// alertSorter orders alerts by (At, Server). A typed sort.Interface
// instead of sort.Slice: the latter allocates a closure and a reflected
// swapper per call, which the merger would pay once per epoch; one
// sorter value is reused for the runtime's lifetime. (At, Server) is a
// unique key — each server emits at most one alert per interval — so
// the unstable sort is still deterministic.
type alertSorter struct{ alerts []Alert }

func (s *alertSorter) Len() int { return len(s.alerts) }
func (s *alertSorter) Less(i, j int) bool {
	if s.alerts[i].At != s.alerts[j].At {
		return s.alerts[i].At < s.alerts[j].At
	}
	return s.alerts[i].Server < s.alerts[j].Server
}
func (s *alertSorter) Swap(i, j int) { s.alerts[i], s.alerts[j] = s.alerts[j], s.alerts[i] }
