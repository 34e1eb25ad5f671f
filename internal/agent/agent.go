// Package agent is the per-host half of distributed ingestion: it tails
// a JSONL visit source and ships sequence-numbered batches to the merge
// head (internal/merge) over the wire protocol (internal/wire).
//
// # Robustness contract
//
// The agent assumes the network fails and the head restarts rarely. Its
// job is to make both invisible to the analysis:
//
//   - Sequence numbers are positional in the source stream (batch k of a
//     fixed batch size is always sequence k), so a restarted agent
//     re-reading the same source regenerates identical batches and the
//     head's (node, seq) dedup turns redelivery into exactly-once
//     application.
//   - Every batch stays in an in-memory ring until the head acknowledges
//     it. On reconnect the agent resumes from Welcome.LastAcked: ring
//     entries at or below it are discarded, the rest are retransmitted
//     in order before any new batch.
//   - Reconnects use exponential backoff with jitter, so a flapping head
//     is not stampeded by its own agents.
//   - Heartbeats only say the agent is alive (plus its WAL state). They
//     carry no departure horizon: the head raises a node's watermark from
//     the records it applies, so a horizon could only repeat what the
//     head already knows — or, for a batch lost with the connection, let
//     the barrier seal past records the head never applied.
//   - Batches are opaque past the cut: each is encoded once, and the
//     ring, the WAL and the connection all carry those same bytes.
//
// A handshake rejection (Error frame in place of Welcome, or a version
// mismatch) is terminal — retrying an incompatible head forever helps
// nobody. Every other failure reconnects, and Config.MaxDials bounds the
// attempts in a row that get nothing new acknowledged.
package agent

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/wire"
)

// Config tunes one agent run.
type Config struct {
	// Node is this agent's stable identity — the key of the merge
	// head's dedup and watermark state. It must survive restarts (a
	// hostname, not a PID).
	Node string
	// Addr is the merge head's TCP address.
	Addr string
	// BatchSize is the records-per-batch cut, made by the agent itself
	// by record count (the decoder hands records over in whatever pieces
	// the source's reads produce): every batch but the last holds exactly
	// this many. It is part of the resume contract: sequence numbers are
	// positional, so a restarted agent must use the same batch size to
	// regenerate the same sequences. Default 512.
	BatchSize int
	// Window caps unacknowledged batches held in memory; the source
	// read stalls when the window is full (backpressure, bounded
	// memory). Default 64.
	Window int
	// HeartbeatEvery is the liveness cadence; each heartbeat is echoed
	// by the head, so it doubles as dead-connection detection. Default
	// 1 s.
	HeartbeatEvery time.Duration
	// IOTimeout bounds handshake reads and frame writes; the idle read
	// timeout is max(IOTimeout, 3×HeartbeatEvery). Default 10 s.
	IOTimeout time.Duration
	// BackoffBase and BackoffMax shape reconnect backoff (exponential,
	// ±50% jitter). Defaults 100 ms and 5 s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxDials caps *consecutive* failed connection attempts before the
	// run fails: a failed dial, or a session that ends with batches
	// outstanding and none newly acknowledged (a head refusing the same
	// batch every time). The counter and the backoff reset when a
	// session acknowledges something new. 0 means retry forever (until
	// the context cancels).
	MaxDials int
	// Lenient skips undecodable source lines (counted in
	// Metrics.Source) instead of failing the run.
	Lenient bool
	// WALDir, when set, enables the write-ahead log: every cut batch is
	// appended there before entering the send ring, a head outage
	// longer than the window spills to disk instead of stalling the
	// source read, and a restarted agent replays the log so `kill -9`
	// is byte-equivalent to an uninterrupted run. The directory must be
	// stable across restarts, one per node.
	WALDir string
	// WALSegmentBytes is the log's segment rotation threshold (default
	// 4 MiB); WALNoSync skips the per-append fsync (tests).
	WALSegmentBytes int
	WALNoSync       bool
	// AuthKey, when set, is the shared key for the mutual HMAC
	// handshake (wire protocol version 2 and later). The head must hold
	// the same key; a mismatch — either direction — is a terminal error,
	// and an authenticating agent refuses a head that skips the
	// challenge.
	AuthKey []byte
	// Dial opens the transport. Injectable for tests, fault proxies and
	// TLS (the CLI wraps tls.Dial here). Default net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Rand is the jitter source, injectable for determinism. Default
	// math/rand.Float64.
	Rand func() float64
	// Sleep waits out reconnect backoff, injectable so tests can pin
	// the backoff schedule with a fake clock. Default: a timer that
	// also honors context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnSourceDrained, when set, is called once when the source reader
	// is exhausted — including between sessions, where spill mode keeps
	// consuming it. Tests use it to know the WAL holds the full feed.
	OnSourceDrained func()
	// Logf, when set, receives reconnect/backoff diagnostics.
	Logf func(format string, args ...any)
}

// Metrics summarizes one agent run.
type Metrics struct {
	// RecordsRead counts records decoded from the source; RecordsSent
	// counts records written to the wire at least once.
	RecordsRead int64
	RecordsSent int64
	// BatchesSent counts batch frames written (including retransmits);
	// Retransmits counts the re-sends among them; BatchesAcked counts
	// batches acknowledged by the head.
	BatchesSent  int64
	Retransmits  int64
	BatchesAcked int64
	// Reconnects counts sessions after the first.
	Reconnects int64
	// ResumeSkipped counts records never sent because the head had
	// already acknowledged their batch (restart fast-forward).
	ResumeSkipped int64
	// WALAppended counts batches made durable in the write-ahead log;
	// WALRecovered counts batches found in the log at startup (restart
	// replay); WALCovered counts re-read source records dropped because
	// the recovered log already held their batch; WALSpillPeak is the
	// most batches ever waiting on disk beyond the in-memory window
	// (>0 means spill mode happened). All zero without Config.WALDir.
	WALAppended  int64
	WALRecovered int64
	WALCovered   int64
	WALSpillPeak int64
	// Source is the decode accounting of the JSONL reader.
	Source traceio.Stats
}

// batchRec is one ring entry: a cut batch awaiting acknowledgment.
// body is its wire.AppendVisits encoding, n its record count.
type batchRec struct {
	seq  uint64
	body []byte
	n    int
	sent bool
}

type readResult struct {
	stats traceio.Stats
	err   error
}

// run is the single-goroutine state of one Run call (the source reader
// and per-session frame reader are helpers feeding channels).
type run struct {
	cfg Config
	m   Metrics

	pending     []batchRec // unacked ring, ordered by seq
	wal         *walState  // nil without Config.WALDir
	nextSeq     uint64
	ackedSeq    uint64
	srcDone     bool
	finalSeq    uint64
	saidGoodbye bool

	srcCh   chan batchRec // cut batches, seq not yet assigned
	readRes chan readResult
}

// Run ships src to the merge head and blocks until the head confirms
// the full stream (clean completion), the context cancels, or a
// terminal error occurs. The returned Metrics are valid in every case.
func Run(ctx context.Context, src io.Reader, cfg Config) (Metrics, error) {
	if cfg.Node == "" {
		return Metrics{}, errors.New("agent: Config.Node is required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepTimer
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &run{
		cfg:     cfg,
		nextSeq: 1,
		srcCh:   make(chan batchRec, 1),
		readRes: make(chan readResult, 1),
	}
	if cfg.WALDir != "" {
		ws, rec, err := openWAL(cfg)
		if err != nil {
			return Metrics{}, err
		}
		a.wal = ws
		defer ws.close()
		if rec.Records > 0 {
			// Restart replay: everything below the log's first record was
			// acknowledged before it was truncated; everything in the log
			// is durable and queued, so the source re-read only refills
			// positions the log does not cover.
			a.ackedSeq = rec.FirstSeq - 1
			ws.covered = rec.LastSeq
			a.m.WALRecovered = int64(rec.Records)
			cfg.Logf("agent %s: wal: recovered %d unacknowledged batches [%d, %d] in %d segment(s)",
				cfg.Node, rec.Records, rec.FirstSeq, rec.LastSeq, rec.Segments)
		}
		if rec.TornBytes > 0 {
			cfg.Logf("agent %s: wal: discarded %d torn bytes past the last whole record", cfg.Node, rec.TornBytes)
		}
	}
	go a.readSource(ctx, src)
	err := a.loop(ctx)
	return a.m, err
}

// readSource decodes the JSONL source and cuts it into batches of exactly
// Config.BatchSize records (the last one, at EOF, may be short). The cuts
// are made here, by record count alone: traceio hands records over as the
// source yields them, in pieces whose sizes depend on how its reads
// fragment, and sequence numbers are positional — batch k must carry the
// same records on every read of the same source. Each cut is encoded
// here, once; nothing downstream looks inside it again.
func (a *run) readSource(ctx context.Context, src io.Reader) {
	size := a.cfg.BatchSize
	opts := traceio.StreamOptions{BatchSize: size}
	if a.cfg.Lenient {
		opts.Policy = traceio.Skip
	}
	cut := make([]trace.Visit, 0, size)
	var enc []byte // reused encode scratch; each body is an exact-size copy
	send := func() error {
		enc = wire.AppendVisits(enc[:0], cut)
		select {
		case a.srcCh <- batchRec{body: bytes.Clone(enc), n: len(cut)}:
			cut = cut[:0]
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	stats, err := traceio.StreamVisitsOpts(src, opts, func(batch []trace.Visit) error {
		for len(batch) > 0 {
			n := min(len(batch), size-len(cut))
			cut = append(cut, batch[:n]...)
			batch = batch[n:]
			if len(cut) == size {
				if err := send(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil && len(cut) > 0 {
		err = send()
	}
	close(a.srcCh)
	a.readRes <- readResult{stats: stats, err: err}
}

// loop runs sessions until clean completion or a terminal failure.
func (a *run) loop(ctx context.Context) error {
	backoff := a.cfg.BackoffBase
	fails := 0
	session := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		acked := a.ackedSeq
		if session > 0 || fails > 0 {
			if err := a.sleepDrain(ctx, a.jitter(backoff)); err != nil {
				var term *terminalError
				if errors.As(err, &term) {
					return term.err
				}
				return err
			}
			if backoff *= 2; backoff > a.cfg.BackoffMax {
				backoff = a.cfg.BackoffMax
			}
		}
		conn, welcome, terminal, err := a.connect(ctx)
		if terminal {
			if a.delivered() {
				// Every batch through finalSeq is acked and durable; the
				// only frame left was the EOF notice (our Goodbye echo was
				// lost with the previous connection). A head that rejects
				// the reconnect now is draining or completing — it has no
				// more need of the notice, so this run is complete, not
				// failed.
				a.cfg.Logf("agent %s: head rejected reconnect after full delivery (%v); exiting clean", a.cfg.Node, err)
				return nil
			}
			return err
		}
		if err != nil {
			fails++
			if a.cfg.MaxDials > 0 && fails >= a.cfg.MaxDials {
				return fmt.Errorf("agent: giving up after %d consecutive failed connection attempts: %w", fails, err)
			}
			a.cfg.Logf("agent %s: connect: %v (attempt %d)", a.cfg.Node, err, fails)
			continue
		}
		session++
		if session > 1 {
			a.m.Reconnects++
		}
		a.fastForward(welcome.LastAcked)
		// A Goodbye whose echo was lost with the old connection must be
		// re-sent on this one (the head's EOF handling is idempotent).
		a.saidGoodbye = false
		done, err := a.session(ctx, conn)
		if done {
			return nil
		}
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			return err
		}
		var term *terminalError
		if errors.As(err, &term) {
			return term.err
		}
		// A session fails when it ends with batches outstanding and none
		// of them newly acknowledged: a head refusing the same batch
		// every time must not be redialled forever without backoff.
		if a.ackedSeq > acked || len(a.pending) == 0 && !a.hasBacklog() {
			fails, backoff = 0, a.cfg.BackoffBase
		} else if fails++; a.cfg.MaxDials > 0 && fails >= a.cfg.MaxDials {
			return fmt.Errorf("agent: giving up after %d consecutive failed connection attempts: batch %d was not acknowledged: %w", fails, a.ackedSeq+1, err)
		}
		a.cfg.Logf("agent %s: session ended: %v (reconnecting)", a.cfg.Node, err)
	}
}

// delivered reports whether every source record is durably applied at
// the head: the source is exhausted and no batch awaits an ack — in
// the ring or spilled on disk. Once true, the only frame left to send
// is the EOF notice (Goodbye).
func (a *run) delivered() bool {
	return a.srcDone && len(a.pending) == 0 && !a.hasBacklog()
}

// hasBacklog reports batches durable on disk but not yet in the ring:
// spill mode's leftover, drained by refill as acknowledgments free
// window slots.
func (a *run) hasBacklog() bool {
	return a.wal != nil && a.wal.next <= a.wal.log.LastSeq()
}

// terminalError marks failures no reconnect can fix (source read
// failure, handshake rejection).
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }

// sleepTimer is the default Config.Sleep.
func sleepTimer(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepDrain waits out a backoff like Config.Sleep, but with a WAL
// configured it keeps cutting source batches to disk while
// disconnected — spill mode is what keeps ingest running through a
// head outage. Without a WAL the ring is the only buffer, so the
// source is left alone until a session restores acknowledgment flow.
func (a *run) sleepDrain(ctx context.Context, d time.Duration) error {
	if a.wal == nil || a.srcDone {
		return a.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		src := a.srcCh
		if a.srcDone {
			src = nil
		}
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case b, ok := <-src:
			if !ok {
				if err := a.sourceExhausted(); err != nil {
					return err
				}
				continue
			}
			if _, err := a.intake(b); err != nil {
				return err
			}
		}
	}
}

// jitter spreads d over [0.5d, 1.5d) so agents reconnecting after the
// same head failure do not stampede it in lockstep, clamped at
// BackoffMax so jitter can never grow the configured ceiling.
func (a *run) jitter(d time.Duration) time.Duration {
	j := time.Duration(float64(d) * (0.5 + a.cfg.Rand()))
	if j > a.cfg.BackoffMax {
		j = a.cfg.BackoffMax
	}
	return j
}

// connect dials and handshakes once. terminal=true means the error is
// not retryable (version rejection, protocol confusion); any error
// closes the connection.
func (a *run) connect(ctx context.Context) (_ net.Conn, _ wire.Welcome, terminal bool, err error) {
	conn, err := a.cfg.Dial(a.cfg.Addr)
	if err != nil {
		return nil, wire.Welcome{}, false, err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	conn.SetDeadline(time.Now().Add(a.cfg.IOTimeout))
	// FirstSeq: the lowest batch this agent can still transmit — the
	// ring's head, the on-disk backlog's head after a restart replay, or
	// the next sequence to be produced when nothing is pending. It lets
	// the head reject (rather than silently skip past) a first batch
	// that lost its predecessors in transit.
	first := max(a.nextSeq, a.ackedSeq+1)
	if a.wal != nil {
		first = max(first, a.wal.covered+1)
	}
	if a.hasBacklog() {
		first = min(first, a.wal.next)
	}
	if len(a.pending) > 0 {
		first = a.pending[0].seq
	}
	nonce, err := wire.NewNonce()
	if err != nil {
		return nil, wire.Welcome{}, true, fmt.Errorf("agent: handshake nonce: %w", err)
	}
	w := wire.NewWriter(conn)
	err = w.WriteHello(wire.Hello{Version: wire.Version, Node: a.cfg.Node, FirstSeq: first, Nonce: nonce})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return nil, wire.Welcome{}, false, err
	}
	r := wire.NewReader(conn)
	f, err := r.Read()
	if err != nil {
		return nil, wire.Welcome{}, false, fmt.Errorf("agent: handshake read: %w", err)
	}
	authed := false
	if f.Type == wire.TypeChallenge {
		if len(a.cfg.AuthKey) == 0 {
			return nil, wire.Welcome{}, true, errors.New("agent: merge head requires authentication and this agent has no shared key (set -authkey)")
		}
		// Answer first, then verify the head's proof: the head can count
		// a bad key either way, and our verdict on its proof does not
		// depend on the order (both proofs bind both nonces).
		err = w.WriteAuth(wire.Auth{MAC: wire.AgentProof(a.cfg.AuthKey, a.cfg.Node, nonce, f.Challenge.Nonce)})
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			return nil, wire.Welcome{}, false, err
		}
		if !wire.ProofEqual(f.Challenge.Proof, wire.HeadProof(a.cfg.AuthKey, nonce, f.Challenge.Nonce)) {
			return nil, wire.Welcome{}, true, errors.New("agent: merge head failed mutual authentication (shared key mismatch)")
		}
		authed = true
		if f, err = r.Read(); err != nil {
			return nil, wire.Welcome{}, false, fmt.Errorf("agent: handshake read: %w", err)
		}
	}
	switch f.Type {
	case wire.TypeError:
		return nil, wire.Welcome{}, true, fmt.Errorf("agent: rejected by merge head: %s", f.Error.Msg)
	case wire.TypeWelcome:
		if len(a.cfg.AuthKey) > 0 && !authed {
			// Downgrade refusal: a keyless (or impostor) head welcoming us
			// without a challenge never proved it holds the key.
			return nil, wire.Welcome{}, true, errors.New("agent: merge head did not authenticate (no shared key on the head?); refusing unauthenticated session")
		}
		if f.Welcome.Version != wire.Version {
			return nil, wire.Welcome{}, true, fmt.Errorf("agent: merge head speaks protocol version %d, this build speaks %d", f.Welcome.Version, wire.Version)
		}
	default:
		return nil, wire.Welcome{}, true, fmt.Errorf("agent: unexpected handshake frame type %d", f.Type)
	}
	conn.SetDeadline(time.Time{})
	return conn, f.Welcome, false, nil
}

// fastForward applies the head's resume cursor: ring entries at or
// below lastAcked were durably applied by a previous session and are
// discarded. A cursor *behind* our own acknowledgment state means the
// head restarted cold and its memory of those batches is gone — the
// records are lost to the analysis (the head accepts the ring's first
// batch at any sequence), which is logged, never silent.
func (a *run) fastForward(lastAcked uint64) {
	if lastAcked > a.ackedSeq {
		a.ackedSeq = lastAcked
		a.popAcked(lastAcked)
		if a.wal != nil {
			if lastAcked+1 > a.wal.next {
				a.wal.skipTo(lastAcked + 1)
			}
			a.truncateWAL()
		}
	} else if lastAcked < a.ackedSeq {
		a.cfg.Logf("agent %s: merge head resume cursor %d behind ours %d (head restarted cold; acknowledged batches between are lost)",
			a.cfg.Node, lastAcked, a.ackedSeq)
	}
}

// popAcked discards ring entries with seq ≤ s.
func (a *run) popAcked(s uint64) {
	cut := 0
	for cut < len(a.pending) && a.pending[cut].seq <= s {
		a.m.BatchesAcked++
		cut++
	}
	if cut > 0 {
		a.pending = a.pending[:copy(a.pending, a.pending[cut:])]
	}
}

// sourceExhausted finalizes the source reader's accounting. Called once
// when srcCh closes — from the session loop, or from sleepDrain when
// spill mode keeps consuming the source between sessions.
func (a *run) sourceExhausted() error {
	res := <-a.readRes
	a.m.Source = res.stats
	a.srcDone = true
	a.finalSeq = a.nextSeq - 1
	if a.cfg.OnSourceDrained != nil {
		a.cfg.OnSourceDrained()
	}
	if res.err != nil {
		return &terminalError{fmt.Errorf("agent: source read: %w", res.err)}
	}
	return nil
}

// intake admits one cut source batch: assign its positional sequence,
// drop it if a recovered log or the head's resume cursor already covers
// it, make it durable, and either hand it to the ring (returned non-nil,
// for the caller to transmit) or leave it spilled on disk when the
// window is full or older spill is still queued — delivery is FIFO, a
// fresh batch may not jump the backlog.
func (a *run) intake(b batchRec) (*batchRec, error) {
	b.seq = a.nextSeq
	a.nextSeq++
	a.m.RecordsRead += int64(b.n)
	if a.wal != nil && b.seq <= a.wal.covered {
		// Restart replay: the recovered log already holds this batch
		// byte-for-byte (sequences are positional), so the re-read copy
		// is redundant.
		a.m.WALCovered += int64(b.n)
		return nil, nil
	}
	if b.seq <= a.ackedSeq {
		// The head already applied this batch in a previous incarnation
		// of this agent.
		a.m.ResumeSkipped += int64(b.n)
		return nil, nil
	}
	if a.wal != nil {
		spill := a.hasBacklog() || len(a.pending) >= a.cfg.Window
		if err := a.wal.log.Append(b.seq, b.body); err != nil {
			return nil, &terminalError{fmt.Errorf("agent: %w", err)}
		}
		a.m.WALAppended++
		if spill {
			if backlog := int64(a.wal.log.LastSeq() - a.wal.next + 1); backlog > a.m.WALSpillPeak {
				a.m.WALSpillPeak = backlog
			}
			return nil, nil
		}
		a.wal.skipTo(b.seq + 1) // it entered the ring directly: no disk read
	}
	a.pending = append(a.pending, b)
	return &a.pending[len(a.pending)-1], nil
}

// refill drains the on-disk backlog into freed window slots, transmits
// the reloaded batches in order and flushes. Called at session start,
// after the ring retransmit, and after every acknowledgment.
func (a *run) refill(w *wire.Writer, flush func() error) error {
	for len(a.pending) < a.cfg.Window && a.hasBacklog() {
		rec, err := a.wal.readNext()
		if err != nil {
			return &terminalError{fmt.Errorf("agent: %w", err)}
		}
		if rec.seq <= a.ackedSeq {
			// Acknowledged while it sat on disk (reconnect fast-forward).
			continue
		}
		a.pending = append(a.pending, rec)
		if err := a.send(w, &a.pending[len(a.pending)-1]); err != nil {
			return err
		}
	}
	return flush()
}

// send writes one ring entry's batch frame — the only place batch
// frames are written — and counts it: records on its first send, a
// retransmit on every later one.
func (a *run) send(w *wire.Writer, rec *batchRec) error {
	if err := w.WriteBatchBody(rec.seq, rec.body); err != nil {
		return err
	}
	a.m.BatchesSent++
	if rec.sent {
		a.m.Retransmits++
	} else {
		rec.sent = true
		a.m.RecordsSent += int64(rec.n)
	}
	return nil
}

// truncateWAL drops log segments wholly at or below the acknowledgment
// cursor. Failure here loses nothing — the log is merely longer than it
// needs to be — so it is logged, never fatal.
func (a *run) truncateWAL() {
	if a.wal == nil {
		return
	}
	if _, err := a.wal.log.TruncateThrough(a.ackedSeq); err != nil {
		a.cfg.Logf("agent %s: wal truncate: %v", a.cfg.Node, err)
	}
}

type inFrame struct {
	f   wire.Frame
	err error
}

// session runs one connection to completion: retransmit the ring, then
// stream new batches, heartbeats and acknowledgments until the head
// echoes our Goodbye (done), the connection fails (reconnect), or the
// context cancels. Single writer: only this goroutine touches w.
func (a *run) session(ctx context.Context, conn net.Conn) (bool, error) {
	defer conn.Close()
	w := wire.NewWriter(conn)
	idle := a.cfg.IOTimeout
	if hb3 := 3 * a.cfg.HeartbeatEvery; hb3 > idle {
		idle = hb3
	}

	stop := make(chan struct{})
	defer close(stop)
	inCh := make(chan inFrame, 8)
	go func() {
		r := wire.NewReader(conn)
		for {
			conn.SetReadDeadline(time.Now().Add(idle))
			f, err := r.Read()
			select {
			case inCh <- inFrame{f, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(a.cfg.IOTimeout))
		return w.Flush()
	}

	// Retransmit the unacknowledged ring in order before anything new;
	// batches that waited on disk follow (refill flushes both).
	for i := range a.pending {
		if err := a.send(w, &a.pending[i]); err != nil {
			return false, err
		}
	}
	if err := a.refill(w, flush); err != nil {
		return false, err
	}
	if err := a.maybeGoodbye(w, flush); err != nil {
		return false, err
	}

	hb := time.NewTicker(a.cfg.HeartbeatEvery)
	defer hb.Stop()
	for {
		// Without a WAL a full window stalls the source read
		// (backpressure); with one, intake keeps cutting to disk.
		srcIn := a.srcCh
		if a.srcDone || (a.wal == nil && len(a.pending) >= a.cfg.Window) {
			srcIn = nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()

		case b, ok := <-srcIn:
			if !ok {
				if err := a.sourceExhausted(); err != nil {
					return false, err
				}
				if err := a.maybeGoodbye(w, flush); err != nil {
					return false, err
				}
				continue
			}
			rec, err := a.intake(b)
			if err != nil {
				return false, err
			}
			if rec == nil {
				continue // covered, already acked, or spilled to disk
			}
			if err := a.send(w, rec); err != nil {
				return false, err
			}
			if err := flush(); err != nil {
				return false, err
			}

		case in := <-inCh:
			if in.err != nil {
				return false, in.err
			}
			switch in.f.Type {
			case wire.TypeAck:
				if s := in.f.Ack.Seq; s > a.ackedSeq {
					a.ackedSeq = s
					a.popAcked(s)
					a.truncateWAL()
					if err := a.refill(w, flush); err != nil {
						return false, err
					}
				}
				if err := a.maybeGoodbye(w, flush); err != nil {
					return false, err
				}
			case wire.TypeGoodbye:
				// The head confirmed our Goodbye: every batch through
				// FinalSeq is applied. Clean completion.
				return true, nil
			case wire.TypeError:
				return false, fmt.Errorf("agent: merge head error: %s", in.f.Error.Msg)
			default:
				return false, fmt.Errorf("agent: unexpected frame type %d mid-session", in.f.Type)
			}

		case <-hb.C:
			var h wire.Heartbeat
			if a.wal != nil {
				if last := a.wal.log.LastSeq(); last > a.ackedSeq {
					h.WALDepth = last - a.ackedSeq
				}
				h.WALSegments = uint64(a.wal.log.Segments())
				h.Spilling = a.hasBacklog()
			}
			if err := w.WriteHeartbeat(h); err != nil {
				return false, err
			}
			if err := flush(); err != nil {
				return false, err
			}
		}
	}
}

// maybeGoodbye sends the end-of-stream frame once the source is
// exhausted and every batch is acknowledged. Idempotent per session;
// safe to re-send on a later session (the head's EOF is idempotent
// too).
func (a *run) maybeGoodbye(w *wire.Writer, flush func() error) error {
	if !a.delivered() || a.saidGoodbye {
		return nil
	}
	if err := w.WriteGoodbye(wire.Goodbye{FinalSeq: a.finalSeq, Reason: "eof"}); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	a.saidGoodbye = true
	return nil
}
