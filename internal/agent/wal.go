package agent

import (
	"bytes"
	"fmt"
	"io"

	"transientbd/internal/wal"
	"transientbd/internal/wire"
)

// walState wires a wal.Log into the agent's delivery state machine.
// With a WAL configured the log — not the in-memory ring — is the
// source of truth for unacknowledged batches: every cut batch is
// appended before it is offered to the network, the ring becomes a
// bounded cache of the next Window unacknowledged batches, and
// anything beyond the window waits on disk (spill mode) instead of
// stalling the source read. Acknowledgments truncate whole segments;
// a restart reopens the log and replays it from the head's resume
// cursor.
type walState struct {
	log *wal.Log
	// next is the sequence the refill cursor will yield next: batches
	// in [next, log.LastSeq()] are durable on disk but not in the ring
	// — the spill backlog. Batches below next are in the ring or
	// acknowledged.
	next uint64
	// covered is the highest sequence recovered from a previous run's
	// log. Source batches at or below it are already durable and
	// queued, so intake drops the re-read copies — safe because
	// sequence numbers are positional, making the recovered bytes
	// identical to the re-cut ones.
	covered uint64
	cur     *wal.Cursor
}

// openWAL opens (or recovers) the agent's log and positions the refill
// state after whatever survived on disk. A recovered log cut at another
// batch size is refused here, before anything is sent.
func openWAL(cfg Config) (*walState, wal.Recovery, error) {
	log, rec, err := wal.Open(wal.Options{
		Dir:          cfg.WALDir,
		SegmentBytes: cfg.WALSegmentBytes,
		NoSync:       cfg.WALNoSync,
	})
	if err != nil {
		return nil, wal.Recovery{}, fmt.Errorf("agent: %w", err)
	}
	ws := &walState{log: log, next: log.LastSeq() + 1}
	if rec.Records > 0 {
		ws.next = rec.FirstSeq
		if err := ws.checkCuts(cfg.BatchSize); err != nil {
			log.Close()
			return nil, wal.Recovery{}, fmt.Errorf("agent: %w", err)
		}
	}
	return ws, rec, nil
}

// checkCuts requires every recovered record to hold exactly size
// records; the log's last one may hold fewer (the source's final cut).
// Sequence numbers are positional, so a log cut at another batch size
// would cover the wrong records of the re-read source.
func (ws *walState) checkCuts(size int) error {
	defer ws.invalidate()
	for ws.next <= ws.log.LastSeq() {
		rec, err := ws.readNext()
		if err != nil {
			return err
		}
		if rec.n != size && (rec.seq != ws.log.LastSeq() || rec.n > size) {
			return fmt.Errorf("wal: record %d holds %d records but the batch size is %d: the log was cut at another batch size (restart with the size it was written with, or clear the log)", rec.seq, rec.n, size)
		}
	}
	ws.next = ws.log.FirstSeq()
	return nil
}

// readNext loads the next backlog batch: its body as stored, checked
// well formed and counted. The caller checks the backlog is non-empty
// first, so io.EOF here means the log lied — surfaced as an error.
func (ws *walState) readNext() (batchRec, error) {
	if ws.cur == nil {
		cur, err := ws.log.ReadCursor(ws.next)
		if err != nil {
			return batchRec{}, err
		}
		ws.cur = cur
	}
	seq, body, err := ws.cur.Next()
	if err == io.EOF {
		return batchRec{}, fmt.Errorf("wal: backlog cursor hit end at %d", ws.next)
	}
	if err != nil {
		return batchRec{}, err
	}
	n, err := wire.VisitCount(body)
	if err != nil {
		return batchRec{}, fmt.Errorf("wal: record %d: %w", seq, err)
	}
	ws.next = seq + 1
	// The cursor reuses its buffer; the ring keeps the body until acked.
	return batchRec{seq: seq, body: bytes.Clone(body), n: n}, nil
}

// skipTo repositions the refill cursor: past a batch that entered the
// ring directly, or past batches acknowledged while they sat on disk
// (reconnect fast-forward).
func (ws *walState) skipTo(seq uint64) {
	ws.next = seq
	ws.invalidate()
}

func (ws *walState) invalidate() {
	if ws.cur != nil {
		ws.cur.Close()
		ws.cur = nil
	}
}

func (ws *walState) close() {
	ws.invalidate()
	ws.log.Close()
}
