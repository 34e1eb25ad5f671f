// Shard supervision: every message a shard goroutine processes runs
// under a recover. A panic — a defect in the analyzer, or a fault
// injected through Config.Hooks — quarantines only that shard: its
// analyzers are rebuilt from the last checkpoint cut, the batches
// retained since the cut are replayed, the failed message is retried
// once, and the restart is counted in self-metrics. A shard that keeps
// panicking past the crash-loop budget degrades to drop-with-accounting
// instead of taking down the merger: it keeps acknowledging watermark
// barriers (so the other shards' alerts still flow) while counting every
// record it drops.
//
// Recovery is exact for transient faults when no records were late: the
// rebuilt state is the checkpoint cut plus a replay of every batch
// processed since, each under the shard watermark it originally ran
// under: the analyzers are advanced to that watermark before it, so they
// see the original barrier schedule (the self-estimated service table is
// rebuilt as intervals close), and a mid-stream server keeps its original
// grid anchor. The fast-forward to the current watermark re-closes
// intervals whose alerts already went out without re-emitting them. Retention is capped
// (retainCap records per shard); batches evicted by the cap before
// the next checkpoint are unrecoverable and are counted in RecordsLost
// if a rebuild actually needs them.
package stream

import (
	"fmt"
	"sort"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// runShard is a shard goroutine: the single writer for every core.Online
// that hashes to it, with each message delivered under the supervisor.
// On shutdown the retained replay batches go back to the pool — nothing
// can rebuild from them once the goroutine exits, and the next runtime in
// this process (sequential benchmark iterations, CLI batch mode) starts
// with a warm pool instead of reallocating its batch working set.
func (r *Runtime) runShard(s *shard) {
	defer r.workers.Done()
	for msg := range s.in {
		r.deliver(s, msg)
	}
	for _, rb := range s.retained {
		putBatch(rb.recs)
	}
	s.retained = nil
	s.retainedRecs = 0
}

// deliver processes one message, recovering from panics: quarantine,
// rebuild, replay, retry once, then abandon the message with accounting.
// The message is threaded by pointer through attempt/handle/abandon so a
// stage that completes can consume its part (handle clears batch once it
// is applied and retained): a retry after a later-stage panic then skips
// the consumed stage instead of double-applying it.
func (r *Runtime) deliver(s *shard, msg shardMsg) {
	// Liveness heartbeat: one atomic store per message (so per ~batchSize
	// records) — no locks and no allocations on the ingest hot path.
	defer func() { s.beat.Store(time.Now().UnixNano()) }()
	if msg.batch != nil {
		defer s.queued.Add(-int64(len(msg.batch.rows)))
	}
	if s.degraded {
		r.abandon(s, &msg)
		return
	}
	for attempt := 0; ; attempt++ {
		p := r.attempt(s, &msg)
		if p == nil {
			return
		}
		r.restarts.Add(1)
		s.restarts++
		if s.restarts > maxShardRestarts {
			s.degraded = true
			r.degradedShards.Add(1)
		}
		r.rebuild(s)
		if attempt >= 1 || s.degraded {
			r.abandon(s, &msg)
			return
		}
	}
}

// attempt runs handle under a recover, returning the panic value (nil on
// success).
func (r *Runtime) attempt(s *shard, msg *shardMsg) (p any) {
	defer func() { p = recover() }()
	r.handle(s, msg)
	return nil
}

// handle is the un-supervised message dispatch. Watermark barriers carry
// the shard's pending partial batch (applied and retained before the
// barrier — exactly the order separate sends would deliver them in) and
// may carry a checkpoint request; state is serialized after the barrier
// so the cut is exactly the post-advance state at the watermark. The
// batch field is cleared once the batch is retained: a retry after a
// panic in a later stage replays it from retention, not from the message.
func (r *Runtime) handle(s *shard, msg *shardMsg) {
	if msg.batch != nil {
		r.handleBatch(s, msg.batch)
		msg.batch = nil
	}
	switch {
	case msg.epoch > 0:
		r.handleEpoch(s, *msg)
		if msg.ckpt != nil {
			r.handleCkpt(s, msg.ckpt)
		}
	case msg.snap != nil:
		r.handleSnap(s, msg.snap)
	case msg.ckpt != nil:
		r.handleCkpt(s, msg.ckpt)
	}
}

// handleBatch applies one record batch. An Observe hook is handed the row
// itself, so whatever it rewrites is what the analyzer ingests and what
// retention (and therefore crash replay) keeps.
func (r *Runtime) handleBatch(s *shard, batch *recordBatch) {
	hook := r.cfg.Hooks.Observe
	for i := range batch.rows {
		v := &batch.rows[i]
		if hook != nil {
			hook(s.idx, v)
		}
		r.observeShard(s, v)
	}
	// Retain only after the whole batch applied: a retry after a
	// mid-batch panic re-applies the batch from the rebuilt (pre-batch)
	// state, so records land exactly once either way.
	s.retain(batch)
}

func (r *Runtime) handleEpoch(s *shard, msg shardMsg) {
	if msg.epoch <= s.acked {
		return // barrier already acknowledged (retry after a checkpoint-stage panic)
	}
	if hook := r.cfg.Hooks.Advance; hook != nil {
		hook(s.idx, msg.now)
	}
	// Accumulate locally and publish only after every analyzer advanced:
	// a panic mid-barrier must not leave half-counted metrics behind,
	// or the retry would double-count. The closure scratch (coreBuf) and
	// the outgoing alert buffer are both reused, so a barrier allocates
	// nothing in steady state; a panic mid-barrier leaks the buffer to
	// the GC, which is the safe direction.
	buf := getAlerts()
	alerts := (*buf)[:0]
	var congested, pois int64
	for _, name := range s.names {
		o := s.servers[name]
		s.coreBuf = o.AdvanceAppend(msg.now, s.coreBuf[:0])
		for _, a := range s.coreBuf {
			alerts = append(alerts, Alert{
				Server: name,
				At:     a.IntervalStart,
				Load:   a.Load,
				TP:     a.TP,
				State:  a.State,
				POI:    a.POI,
			})
			if a.State == core.StateCongested {
				congested++
			}
			if a.POI {
				pois++
			}
		}
	}
	*buf = alerts
	var re int64
	for _, o := range s.servers {
		re += o.Reestimates()
	}
	r.closedIvals.Add(int64(len(alerts)))
	r.congested.Add(congested)
	r.pois.Add(pois)
	r.reestimates.Add(re - s.reSum)
	s.reSum = re
	s.mark = msg.now
	r.merge <- mergeMsg{epoch: msg.epoch, alerts: buf}
	s.acked = msg.epoch
}

func (r *Runtime) handleSnap(s *shard, reply chan<- []*core.Analysis) {
	var out []*core.Analysis
	for _, name := range s.names {
		if a := s.servers[name].Snapshot(); a != nil {
			a.Server = name
			out = append(out, a)
		}
	}
	reply <- out
}

// handleCkpt serializes every analyzer on this shard and refreshes the
// shard's in-memory recovery cut (lastCkpt + cleared retention) before
// replying, so durable checkpoints and crash recovery share one state.
func (r *Runtime) handleCkpt(s *shard, reply chan<- shardCkptReply) {
	blobs := make(map[string][]byte, len(s.servers))
	for name, o := range s.servers {
		b, err := o.MarshalState()
		if err != nil {
			reply <- shardCkptReply{err: fmt.Errorf("shard %d: serialize %q: %w", s.idx, name, err)}
			return
		}
		blobs[name] = b
	}
	s.lastCkpt = blobs
	for _, rb := range s.retained {
		putBatch(rb.recs)
	}
	s.retained = s.retained[:0]
	s.retainedRecs = 0
	s.gapRecs = 0
	reply <- shardCkptReply{servers: blobs}
}

// observeShard routes one visit into its server's analyzer, creating it
// on first sight with an interval grid anchored at the current watermark
// (grid-aligned), so a server that appears mid-stream does not flood the
// merger with idle closures back to time zero. The visit points into
// its batch's rows (TestIngestAllocBudget pins this path to zero
// allocations per record in steady state).
func (r *Runtime) observeShard(s *shard, v *trace.Visit) {
	o := s.servers[v.Server]
	if o == nil {
		var err error
		o, err = core.NewOnline(s.mark, r.cfg.Online)
		if err != nil {
			// Config was validated in New; an error here is a programmer
			// error in the validation, so drop the visit rather than
			// crash the shard.
			r.dropped.Add(1)
			return
		}
		s.servers[v.Server] = o
		s.names = append(s.names, v.Server)
		sort.Strings(s.names)
	}
	if v.Depart < s.mark {
		r.late.Add(1)
	}
	o.Observe(*v)
}

// retain appends a processed batch to the shard's replay buffer,
// evicting the oldest batches past the cap (evicted batches recycle to
// the pool). Evicted records become unrecoverable until the next
// checkpoint cut; the count is remembered so a rebuild that needed them
// reports the loss.
func (s *shard) retain(batch *recordBatch) {
	s.retained = append(s.retained, retainedBatch{mark: s.mark, recs: batch})
	s.retainedRecs += len(batch.rows)
	for s.retainedRecs > retainCap && len(s.retained) > 1 {
		old := s.retained[0].recs
		s.gapRecs += int64(len(old.rows))
		s.retainedRecs -= len(old.rows)
		putBatch(old)
		s.retained[0].recs = nil
		s.retained = s.retained[1:]
	}
}

// rebuild restores the shard to its last checkpoint cut, replays the
// retained batches, and fast-forwards to the last acknowledged
// watermark, discarding the re-closed intervals' alerts (they were
// already emitted before the panic).
func (r *Runtime) rebuild(s *shard) {
	if s.gapRecs > 0 {
		// Retention evicted batches since the last cut: their records
		// cannot be replayed and are now actually lost.
		r.recordsLost.Add(s.gapRecs)
		s.gapRecs = 0
	}
	servers := make(map[string]*core.Online, len(s.lastCkpt))
	names := make([]string, 0, len(s.lastCkpt))
	for name, blob := range s.lastCkpt {
		o, err := core.NewOnline(0, r.cfg.Online)
		if err == nil {
			err = o.RestoreState(blob)
		}
		if err != nil {
			continue // unrestorable server state: it restarts cold on next sight
		}
		servers[name] = o
		names = append(names, name)
	}
	s.servers = servers
	s.names = names
	sort.Strings(s.names)
	for _, rb := range s.retained {
		if !r.replayBatch(s, rb) {
			r.recordsLost.Add(int64(len(rb.recs.rows)))
		}
	}
	for _, name := range s.names {
		s.servers[name].Advance(s.mark)
	}
	var re int64
	for _, o := range s.servers {
		re += o.Reestimates()
	}
	s.reSum = re
}

// replayBatch re-applies one retained batch during a rebuild, after
// advancing the shard's analyzers to the watermark it originally ran
// under (their closures are discarded: the alerts went out before the
// panic). Hooks are not re-invoked (fault injection must not re-fire
// inside recovery) and the batch is guarded by its own recover: a batch
// that panics even on replay is dropped, reported by the caller.
func (r *Runtime) replayBatch(s *shard, rb retainedBatch) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for _, name := range s.names {
		s.servers[name].Advance(rb.mark)
	}
	for i := range rb.recs.rows {
		v := &rb.recs.rows[i]
		o := s.servers[v.Server]
		if o == nil {
			var err error
			// Anchor at the watermark the batch originally ran under, not
			// the current one, reproducing the server's original grid.
			o, err = core.NewOnline(rb.mark, r.cfg.Online)
			if err != nil {
				continue
			}
			s.servers[v.Server] = o
			s.names = append(s.names, v.Server)
			sort.Strings(s.names)
		}
		o.Observe(*v)
	}
	return true
}

// abandon discharges a message's protocol obligations without processing
// it: batches are dropped with accounting; watermark barriers are
// acknowledged to the merger (empty — their closures are counted lost)
// after a guarded advance keeps the analyzers on the grid; snapshot and
// checkpoint requests get empty/error replies so the producer never
// deadlocks on a broken shard.
func (r *Runtime) abandon(s *shard, msg *shardMsg) {
	if msg.batch != nil {
		r.recordsLost.Add(int64(len(msg.batch.rows)))
		putBatch(msg.batch)
		msg.batch = nil
	}
	switch {
	case msg.epoch > 0:
		if msg.epoch > s.acked {
			if !s.degraded {
				// Keep the analyzers moving so later barriers stay on
				// the grid; the alerts that should have gone out in this
				// epoch are lost — count them. Guard each advance: the
				// panicking analyzer may throw again.
				for _, name := range s.names {
					r.alertsLost.Add(int64(r.guardedAdvance(s.servers[name], msg.now)))
				}
			}
			s.mark = msg.now
			r.merge <- mergeMsg{epoch: msg.epoch}
			s.acked = msg.epoch
		}
		if msg.ckpt != nil {
			msg.ckpt <- shardCkptReply{err: fmt.Errorf("shard %d: checkpoint abandoned after panic", s.idx)}
		}
	case msg.snap != nil:
		msg.snap <- nil
	case msg.ckpt != nil:
		msg.ckpt <- shardCkptReply{err: fmt.Errorf("shard %d: checkpoint abandoned: shard degraded", s.idx)}
	}
}

// guardedAdvance advances one analyzer under its own recover, returning
// how many closures it produced (all discarded).
func (r *Runtime) guardedAdvance(o *core.Online, now simnet.Time) (n int) {
	defer func() { recover() }()
	return len(o.Advance(now))
}
