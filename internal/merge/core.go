// Package merge is the multi-node ingestion head: it accepts
// sequence-numbered record batches from per-host agents (internal/agent,
// over internal/wire) and runs the epoch-barrier discipline of the
// sharded runtime one level up — across *nodes* instead of goroutine
// shards — feeding the unchanged internal/stream runtime underneath.
//
// # The node barrier
//
// Each node contributes a watermark: the newest departure timestamp it
// has delivered. Only applied batches raise it; a heartbeat only keeps
// the node from being degraded. The global
// release point W is the minimum watermark over contributing nodes, so
// no interval seals until every node has delivered past it — the same
// guarantee the single-process runtime gets from reading one
// depart-ordered feed. Within the head, records release and intervals
// seal in the exact order a single fine-grained feed would produce:
// a record is observed when W reaches its departure, and an interval
// ending at e seals when W reaches e+FlushLag — Core.advanceTo
// interleaves the two so a coarse W jump (three nodes advancing in
// steps) replays the identical event sequence as a fine one. Each node
// buffers one run in trace.CompareDepart order (a reordered batch is
// sorted in), and a release merges the runs' prefixes that depart by W:
// that total order is what makes "N agent processes ≡ 1 process" hold
// field-for-field (TestMergeEquivalence).
//
// # Exactly-once, loss, and degraded nodes
//
// Delivery is exactly-once by dedup on (node, seq): sequence numbers
// are positional in the node's source stream, so retransmission after
// a reconnect — or a full agent restart replaying its source — is
// acknowledged without being re-applied. A sequence *gap* is a protocol
// error that closes the connection; the agent retransmits from the
// last-acknowledged batch.
//
// A node that goes silent past the heartbeat timeout (partition, agent
// crash, stalled host) is *degraded*: its watermark stops holding back
// W, so the healthy nodes' intervals keep sealing. Records it already
// delivered stay buffered and are still applied when W passes them.
// When the node returns it is re-admitted immediately; records it then
// delivers from behind the release point are dropped with exact
// per-node accounting (NodeStatus.Dropped) — never silently, and never
// by wedging the global barrier. This mirrors the paper's priority:
// fine-grained *timeliness* of detection over completeness under
// partial failure.
//
// # Concurrency
//
// Core is NOT goroutine-safe: one owner (the Server event loop, or a
// test) calls all mutating methods. Alerts(), Metrics() and
// NodeStatuses() are safe from any goroutine.
package merge

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// noAutoAdvance is the FlushLag the underlying runtime is given so its
// own maxDepart-driven watermark never fires: sealing is the barrier's
// job here. Large enough that maxDepart-noAutoAdvance is always far in
// the past, small enough that the subtraction cannot overflow.
const noAutoAdvance = simnet.Duration(1) << 56

// Config tunes a merge head.
type Config struct {
	// Stream configures the underlying detection runtime (analyzers,
	// shards, checkpoints). Stream.FlushLag and Stream.Resume are
	// rejected: sealing is driven by the node barrier
	// (see FlushLag below), and resuming a merge head from a checkpoint
	// would double-apply records the agents retransmit (acknowledgment
	// state is in-memory; see docs/operations.md).
	Stream stream.Config
	// FlushLag is how far interval sealing trails the release point W,
	// in trace time. It must exceed the longest request residence plus
	// any per-node feed reordering, exactly like the single-process
	// flag. Default 1 s.
	FlushLag simnet.Duration
	// ExpectNodes pre-registers node identities. The barrier waits for
	// every expected node to deliver before any interval seals (their
	// watermarks start at zero), so a slow-starting agent cannot miss
	// the beginning of the analysis. Unlisted nodes may still connect.
	ExpectNodes []string
	// HeartbeatTimeout is the wall-clock silence (no batch, heartbeat,
	// or handshake) after which a node is degraded so it stops holding
	// back the barrier. Default 10 s.
	HeartbeatTimeout time.Duration
	// Now is the wall clock, injectable for deterministic degrade
	// tests. Default time.Now.
	Now func() time.Time
}

// NodeStatus is one node's published state — read-only, rebuilt after
// every event, safe from any goroutine via Core.NodeStatuses.
type NodeStatus struct {
	// Node is the agent's stable identity.
	Node string
	// Watermark is the newest departure the node has delivered;
	// LastSeq the highest batch sequence applied.
	Watermark simnet.Time
	LastSeq   uint64
	// Sessions counts handshakes so far; Reconnects is Sessions-1
	// clamped at zero. Connected reports a currently open session.
	Sessions  int64
	Connected bool
	// Degraded means the node went silent past the heartbeat timeout
	// and no longer holds back the barrier; EOF means it finished its
	// stream cleanly.
	Degraded bool
	EOF      bool
	// Delivered counts records applied from this node; Deduped records
	// skipped as retransmissions; Dropped records that arrived behind
	// the release point after a degrade (exact loss accounting);
	// Invalid records rejected by validation; Buffered records
	// delivered but not yet released to the runtime.
	Delivered, Deduped, Dropped, Invalid, Buffered int64
	// LastFrameWall is the UnixNano wall time of the node's last frame.
	LastFrameWall int64
	// WALDepth and WALSegments mirror the agent's advertised write-ahead
	// log state (carried on its heartbeats; WALDepth counts batches, not
	// records); Spilling means the agent is
	// buffering batches on disk beyond its send window — a head outage
	// or backpressure being absorbed. All zero for agents without a WAL.
	WALDepth    int64
	WALSegments int64
	Spilling    bool
}

type node struct {
	name      string
	lastSeq   uint64
	sawBatch  bool   // a batch has been applied (first-batch rule no longer applies)
	ringStart uint64 // agent-declared lowest transmittable seq (Hello.FirstSeq)
	watermark simnet.Time
	buf       []trace.Visit // buf[off:] delivered, awaiting release (depart > obsMark)
	off       int           // buf[:off] released
	unsorted  bool          // an append broke buf[off:]'s CompareDepart order
	sessions  int64
	conns     int64
	degraded  bool
	eof       bool
	lastFrame time.Time

	walDepth    int64
	walSegments int64
	spilling    bool

	delivered, deduped, dropped, invalid int64
}

// Core is the transport-independent merge head. See the package
// comment for the barrier discipline and the concurrency contract.
type Core struct {
	cfg Config
	rt  *stream.Runtime
	iv  simnet.Duration
	lag simnet.Duration

	nodes map[string]*node
	names []string // sorted node names, for deterministic iteration
	// wm is the release point W (monotone); obsMark the threshold up
	// to which buffered records have been observed; sealed the newest
	// grid point handed to the runtime's Advance.
	wm      simnet.Time
	obsMark simnet.Time
	sealed  simnet.Time
	started bool // a watermark event has occurred (wm is meaningful)

	finished bool
	final    *stream.Snapshot
	runs     [][]trace.Visit // reused release scratch: one prefix per node

	statusA atomic.Pointer[[]NodeStatus]
}

// New builds a merge head and starts its runtime. Close or Finish must
// be called to release the runtime's goroutines.
func New(cfg Config) (*Core, error) {
	if cfg.Stream.Resume {
		return nil, errors.New("merge: Stream.Resume is not supported — agent acknowledgment state is in-memory, so a resumed head would double-apply retransmitted records; start cold and let agents retransmit")
	}
	if cfg.Stream.FlushLag != 0 {
		return nil, errors.New("merge: set merge.Config.FlushLag, not Stream.FlushLag — sealing is driven by the node barrier")
	}
	if cfg.FlushLag <= 0 {
		cfg.FlushLag = simnet.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Stream.Online.Options.Interval <= 0 {
		cfg.Stream.Online.Options.Interval = 50 * simnet.Millisecond
	}
	cfg.Stream.FlushLag = noAutoAdvance
	rt, err := stream.New(cfg.Stream)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:   cfg,
		rt:    rt,
		iv:    cfg.Stream.Online.Options.Interval,
		lag:   cfg.FlushLag,
		nodes: make(map[string]*node),
	}
	now := cfg.Now()
	for _, name := range cfg.ExpectNodes {
		c.addNode(name, now)
	}
	c.publishStatus()
	return c, nil
}

func (c *Core) addNode(name string, now time.Time) *node {
	n := &node{name: name, lastFrame: now}
	c.nodes[name] = n
	c.names = append(c.names, name)
	sort.Strings(c.names)
	return n
}

// Admit registers a node session (handshake), returning the node's
// last-acknowledged sequence — the agent's resume cursor. firstSeq is
// the agent's declared ring start (Hello.FirstSeq): the lowest batch it
// can still transmit, which anchors the first-batch rule in Batch. A
// degraded node is re-admitted: it immediately holds back the barrier
// again until it catches up.
func (c *Core) Admit(name string, firstSeq uint64) uint64 {
	n, ok := c.nodes[name]
	if !ok {
		n = c.addNode(name, c.cfg.Now())
	}
	n.sessions++
	n.conns++
	n.degraded = false
	n.ringStart = firstSeq
	n.lastFrame = c.cfg.Now()
	c.publishStatus()
	return n.lastSeq
}

// Depart records a session closing (any reason). The node keeps its
// state; liveness is judged by frame recency, not connection presence,
// so a quick reconnect never degrades it.
func (c *Core) Depart(name string) {
	if n, ok := c.nodes[name]; ok && n.conns > 0 {
		n.conns--
		c.publishStatus()
	}
}

// errSeqGap is returned for a batch that skips sequence numbers; the
// transport must close the connection so the agent retransmits from
// its last acknowledged batch.
type errSeqGap struct {
	node string
	want uint64
	got  uint64
}

func (e errSeqGap) Error() string {
	return fmt.Sprintf("merge: node %q sequence gap: want %d, got %d (close and retransmit)", e.node, e.want, e.got)
}

// Batch applies one sequence-numbered batch from a node, returning the
// cumulative acknowledgment sequence. Duplicate sequences are
// acknowledged without re-application (exactly-once); a gap is an
// error. Records behind the release point are dropped with accounting;
// the rest buffer until the barrier passes their departure.
func (c *Core) Batch(name string, seq uint64, visits []trace.Visit) (uint64, error) {
	if c.finished {
		return 0, errors.New("merge: head is finished")
	}
	n, ok := c.nodes[name]
	if !ok {
		return 0, fmt.Errorf("merge: batch from unadmitted node %q", name)
	}
	n.lastFrame = c.cfg.Now()
	// Any frame re-admits a degraded node: a healed partition resumes on
	// the same connection, with no fresh handshake to clear the flag.
	n.degraded = false
	switch {
	case n.sawBatch && seq <= n.lastSeq:
		n.deduped += int64(len(visits))
		c.publishStatus()
		return n.lastSeq, nil
	case n.sawBatch && seq != n.lastSeq+1:
		return n.lastSeq, errSeqGap{node: name, want: n.lastSeq + 1, got: seq}
	case n.eof:
		return n.lastSeq, fmt.Errorf("merge: node %q sent batch %d after goodbye", name, seq)
	case !n.sawBatch && seq != n.lastSeq+1 && seq != n.ringStart:
		// A node's first applied batch may start past 1 only where the
		// agent's handshake said its ring begins — the head-restarted-cold
		// case, where earlier acknowledgments died with the old head.
		// Anything else means an earlier batch was lost in transit
		// (dropped frame, reordering proxy): accepting it here would
		// advance the cursor past data the agent still holds, turning the
		// loss permanent. Reject so the agent retransmits from its ring.
		return n.lastSeq, errSeqGap{node: name, want: n.lastSeq + 1, got: seq}
	}
	n.lastSeq = seq
	n.sawBatch = true
	// Reuse the released prefix's room before growing: it is at least
	// half the buffer, so each record is copied O(1) times.
	if len(n.buf)+len(visits) > cap(n.buf) && 2*n.off >= len(n.buf) {
		live := copy(n.buf, n.buf[n.off:])
		clear(n.buf[live:])
		n.buf, n.off = n.buf[:live], 0
	}
	for i := range visits {
		v := visits[i]
		if stream.ValidateVisit(v) != nil {
			n.invalid++
			continue
		}
		n.delivered++
		if c.started && v.Depart <= c.obsMark {
			// Behind the release point: the barrier moved on while this
			// node was degraded (or its feed reordered beyond FlushLag).
			// Dropped with accounting, never applied half-sealed.
			n.dropped++
			continue
		}
		if !n.unsorted && len(n.buf) > n.off && trace.CompareDepart(v, n.buf[len(n.buf)-1]) < 0 {
			n.unsorted = true
		}
		n.buf = append(n.buf, v)
		// The watermark trails the newest delivered departure by one
		// tick: a depart-sorted feed guarantees every *earlier*
		// departure has been delivered, but records tied with the
		// newest may still be split across the next batch boundary —
		// releasing through the tie would misclassify them as late.
		if v.Depart-1 > n.watermark {
			n.watermark = v.Depart - 1
		}
	}
	c.tryAdvance()
	c.publishStatus()
	return n.lastSeq, nil
}

// Heartbeat applies a liveness frame from a node, returning the
// cumulative acknowledgment sequence for the transport's echo. It moves
// no watermark: re-admitting a degraded node can only hold the release
// point back, never advance it.
func (c *Core) Heartbeat(name string) (uint64, error) {
	n, ok := c.nodes[name]
	if !ok {
		return 0, fmt.Errorf("merge: heartbeat from unadmitted node %q", name)
	}
	n.lastFrame = c.cfg.Now()
	n.degraded = false
	c.publishStatus()
	return n.lastSeq, nil
}

// WALStats records a node's advertised durability state (carried on
// heartbeats) for export. Unknown nodes are ignored — the
// transport validates admission via Heartbeat first.
func (c *Core) WALStats(name string, depth, segments uint64, spilling bool) {
	n, ok := c.nodes[name]
	if !ok {
		return
	}
	n.walDepth = int64(depth)
	n.walSegments = int64(segments)
	n.spilling = spilling
	c.publishStatus()
}

// EOF marks a node's stream complete after finalSeq batches. The node
// stops contributing to the barrier; once every node is at EOF, Done
// reports true and the owner should Finish.
func (c *Core) EOF(name string, finalSeq uint64) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("merge: goodbye from unadmitted node %q", name)
	}
	n.lastFrame = c.cfg.Now()
	if n.eof {
		return nil
	}
	if finalSeq != n.lastSeq {
		return fmt.Errorf("merge: node %q goodbye at seq %d but %d applied (incomplete stream)", name, finalSeq, n.lastSeq)
	}
	n.eof = true
	c.tryAdvance()
	c.publishStatus()
	return nil
}

// Tick runs the heartbeat-timeout sweep: any non-EOF node silent past
// HeartbeatTimeout is degraded so it stops holding back the barrier.
// Returns the names of nodes degraded by this tick.
func (c *Core) Tick() []string {
	now := c.cfg.Now()
	var degraded []string
	for _, name := range c.names {
		n := c.nodes[name]
		if n.eof || n.degraded {
			continue
		}
		if now.Sub(n.lastFrame) > c.cfg.HeartbeatTimeout {
			n.degraded = true
			degraded = append(degraded, name)
		}
	}
	if len(degraded) > 0 {
		c.tryAdvance()
		c.publishStatus()
	}
	return degraded
}

// Done reports whether every known node has reached EOF (and at least
// one node exists): the merge head's natural end of stream.
func (c *Core) Done() bool {
	if len(c.nodes) == 0 {
		return false
	}
	for _, n := range c.nodes {
		if !n.eof {
			return false
		}
	}
	return true
}

// tryAdvance recomputes the release point W = min watermark over
// contributing nodes (not degraded, not EOF) and replays the
// single-feed event order up to it: records observe at W = depart,
// intervals ending at e seal at W = e+FlushLag, observations before
// seals on ties. EOF'd nodes stop contributing; if every node is EOF'd
// the remaining records release at Finish.
func (c *Core) tryAdvance() {
	w := simnet.Time(0)
	any := false
	for _, n := range c.nodes {
		if n.degraded || n.eof {
			continue
		}
		if !any || n.watermark < w {
			w = n.watermark
		}
		any = true
	}
	if !any || (c.started && w <= c.wm) {
		return
	}
	c.started = true
	c.wm = w
	c.advanceTo(w)
}

// advanceTo replays the fine-grained event order up to W. Every seal
// point e (grid-aligned) has threshold e+lag; advanceTo alternates
// "observe everything departing ≤ threshold" with "seal up to e" so
// the interleaving is identical no matter how coarsely W jumps — the
// keystone of cross-node determinism.
func (c *Core) advanceTo(w simnet.Time) {
	for {
		e := c.sealed + simnet.Time(c.iv)
		if e+simnet.Time(c.lag) > w {
			break
		}
		c.releaseUpTo(e + simnet.Time(c.lag))
		c.rt.Advance(e)
		c.sealed = e
	}
	c.releaseUpTo(w)
}

// releaseUpTo observes every buffered record with depart ≤ t in
// CompareDepart order, the canonical order of the whole stream at any
// node count and batch timing, by merging each node's sorted prefix.
func (c *Core) releaseUpTo(t simnet.Time) {
	if t <= c.obsMark {
		return
	}
	c.obsMark = t
	runs := c.runs[:0]
	for _, name := range c.names {
		n := c.nodes[name]
		buf := n.sortedBuf()
		k := sort.Search(len(buf), func(i int) bool { return buf[i].Depart > t })
		if k > 0 {
			runs = append(runs, buf[:k])
			n.off += k
		}
	}
	for len(runs) > 0 {
		m := 0
		for i := 1; i < len(runs); i++ {
			if trace.CompareDepart(runs[i][0], runs[m][0]) < 0 {
				m = i
			}
		}
		c.rt.Observe(runs[m][0]) //nolint:errcheck // pre-validated in Batch
		if runs[m] = runs[m][1:]; len(runs[m]) == 0 {
			runs = slices.Delete(runs, m, m+1)
		}
	}
	c.runs = runs
}

// sortedBuf restores the node's buffer to CompareDepart order if a
// reordered batch broke it, and returns it.
func (n *node) sortedBuf() []trace.Visit {
	if n.unsorted {
		slices.SortFunc(n.buf[n.off:], trace.CompareDepart)
		n.unsorted = false
	}
	return n.buf[n.off:]
}

// Finish releases every still-buffered record (stragglers from
// degraded nodes included), seals all intervals, and shuts the runtime
// down, returning the final snapshot. Idempotent.
func (c *Core) Finish() *stream.Snapshot {
	if c.finished {
		return c.final
	}
	c.finished = true
	var max simnet.Time
	for _, n := range c.nodes {
		if buf := n.sortedBuf(); len(buf) > 0 && buf[len(buf)-1].Depart > max {
			max = buf[len(buf)-1].Depart
		}
	}
	if max > c.obsMark {
		// Replay the event order out to the last straggler, as if every
		// node's watermark had reached it, then let Close seal the rest.
		c.advanceTo(max)
	}
	c.final = c.rt.Close()
	c.publishStatus()
	return c.final
}

// Abort tears the runtime down without sealing (error paths).
func (c *Core) Abort() {
	if c.finished {
		return
	}
	c.finished = true
	c.rt.Abort()
}

// Snapshot returns the ranked batch-style reclassification of the
// runtime's current window. Owner goroutine only.
func (c *Core) Snapshot() *stream.Snapshot { return c.rt.Snapshot() }

// Alerts returns the runtime's merged alert stream. The owner must
// drain it; it closes after Finish.
func (c *Core) Alerts() <-chan stream.Alert { return c.rt.Alerts() }

// Metrics returns the runtime's self-metrics. Safe from any goroutine.
func (c *Core) Metrics() stream.Metrics { return c.rt.Metrics() }

// ShardHealth samples the runtime's per-shard liveness. Safe from any
// goroutine.
func (c *Core) ShardHealth() []stream.ShardHealth { return c.rt.ShardHealth() }

// NodeStatuses returns the published per-node state, sorted by node
// name. Safe from any goroutine, any time.
func (c *Core) NodeStatuses() []NodeStatus {
	if p := c.statusA.Load(); p != nil {
		return *p
	}
	return nil
}

// publishStatus rebuilds the any-goroutine node status table. Called
// by the owner after every mutating event.
func (c *Core) publishStatus() {
	out := make([]NodeStatus, 0, len(c.names))
	for _, name := range c.names {
		n := c.nodes[name]
		out = append(out, NodeStatus{
			Node:          n.name,
			Watermark:     n.watermark,
			LastSeq:       n.lastSeq,
			Sessions:      n.sessions,
			Connected:     n.conns > 0,
			Degraded:      n.degraded,
			EOF:           n.eof,
			Delivered:     n.delivered,
			Deduped:       n.deduped,
			Dropped:       n.dropped,
			Invalid:       n.invalid,
			Buffered:      int64(len(n.buf) - n.off),
			LastFrameWall: n.lastFrame.UnixNano(),
			WALDepth:      n.walDepth,
			WALSegments:   n.walSegments,
			Spilling:      n.spilling,
		})
	}
	c.statusA.Store(&out)
}
