// Package traceio serializes wire traces and visit records as JSON Lines,
// the interchange format between the simulator CLI (cmd/ntiersim) and the
// analyzer CLI (cmd/tbdetect) — and a practical format for feeding real
// packet-capture-derived records to the detector.
//
// Two reading modes exist. ReadVisits materializes the whole trace, which
// is convenient for tests and small captures. StreamVisitsOpts decodes in
// bounded batches and hands each batch to a callback, so consumers (like
// tbdetect) can fold records into their own per-server state without the
// process ever holding a second full copy of the trace; its memory use is
// O(batch), independent of trace length. tbdetect -in runs it on a
// goroutine of its own, whose callback copies each batch into one of a
// few owned buffers; the caller's goroutine folds them, in order, into a
// trace.Grouper and the call graph while later batches are decoded.
//
// A batch ends when it holds BatchSize records or when the source has no
// further complete line buffered, whichever comes first: a decoded record
// is never held back while the reader blocks for more input, so on a live
// feed (a pipe, a socket) the wait between a line's arrival and its
// callback is one read, whatever the feed rate. Batches are therefore
// non-empty and of at most BatchSize records, and where they are cut
// depends on how the source fragments its reads — a consumer that needs
// cuts at fixed record counts (internal/agent's positional sequence
// numbers) makes them itself.
//
// # Decoding
//
// Both schemas are fixed and flat, so a line in canonical form — what the
// writers here and ntiersim emit, in any key order, with blanks between
// tokens (see scanner) — is decoded without reflection or per-record
// allocation. Any other line goes through encoding/json, which alone
// decides whether it is accepted, what it decodes to and what the error
// says; the input picks the path, no option does. Names are interned per
// read (trace.Names). A line past
// maxLineBytes is dropped up to its newline and counts as malformed.
//
// # Degraded inputs
//
// Real passive captures are messy: truncated files, half-written final
// lines, corrupt bytes in the middle. Decoding is line-oriented, so a bad
// line never poisons the rest of the stream — the reader resumes at the
// next newline. What happens to the bad line is the caller's choice via
// StreamOptions.Policy: Strict (fail on the first bad line, the default
// and the historical behavior) or Skip (count it and keep going). Every
// *Opts reader reports a Stats block so callers can surface how much of
// the input was usable.
//
// # Concurrency
//
// The free functions are safe to call concurrently on distinct readers
// and writers, but a single reader or writer must not be shared: JSONL
// decoding is inherently sequential. StreamVisitsOpts reuses its batch slice
// between callback invocations — the callback must finish with (or copy)
// the batch before returning, and must not retain it.
package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// visitRecord is the JSONL schema for one visit. Times are microseconds
// from the trace epoch.
type visitRecord struct {
	Server    string `json:"server"`
	Class     string `json:"class,omitempty"`
	TxnID     int64  `json:"txn,omitempty"`
	HopID     int64  `json:"hop,omitempty"`
	ArriveUS  int64  `json:"arrive_us"`
	DepartUS  int64  `json:"depart_us"`
	DownstrUS int64  `json:"downstream_us,omitempty"`
}

// messageRecord is the JSONL schema for one wire message.
type messageRecord struct {
	AtUS      int64  `json:"at_us"`
	From      string `json:"from"`
	To        string `json:"to"`
	Dir       string `json:"dir"`
	Class     string `json:"class,omitempty"`
	Conn      int64  `json:"conn,omitempty"`
	TxnID     int64  `json:"txn,omitempty"`
	HopID     int64  `json:"hop,omitempty"`
	ParentHop int64  `json:"parent,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
}

// WriteVisits writes visits as JSONL, as json.Encoder would visitRecords.
func WriteVisits(w io.Writer, visits []trace.Visit) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	for i, v := range visits {
		line = appendStr(line[:0], `{"server":`, v.Server)
		if v.Class != "" {
			line = appendStr(line, `,"class":`, v.Class)
		}
		line = appendInt(line, `,"txn":`, v.TxnID, true)
		line = appendInt(line, `,"hop":`, v.HopID, true)
		line = appendInt(line, `,"arrive_us":`, int64(v.Arrive), false)
		line = appendInt(line, `,"depart_us":`, int64(v.Depart), false)
		line = appendInt(line, `,"downstream_us":`, int64(v.Downstream), true)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("traceio: write visit %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// DefaultBatch is the most records StreamVisitsOpts hands over at once when
// the caller names no size: big enough to amortize callback dispatch on a
// source that never runs dry, small enough that a batch stays cache- and
// allocation-friendly. A batch ends early when the source has nothing
// more buffered.
const DefaultBatch = 8192

// Policy selects what a reader does with a line it cannot use.
type Policy int

// Line-error policies.
const (
	// Strict fails the whole read on the first bad line.
	Strict Policy = iota
	// Skip counts bad lines and keeps reading from the next newline.
	Skip
)

// StreamOptions tunes a streaming read.
type StreamOptions struct {
	// Policy is the per-line error policy (default Strict).
	Policy Policy
	// BatchSize is the most records one StreamVisitsOpts callback receives
	// (<= 0 uses DefaultBatch). It is a cap, not a cut: a batch ends early
	// whenever the next line would have to wait for the source.
	BatchSize int
}

// LineError records one unusable input line.
type LineError struct {
	// Line is the 1-based line number (blank lines count).
	Line int
	// Err says what was wrong with it.
	Err error
}

// maxKeptErrors bounds the per-read error detail Stats retains; counters
// keep counting past it.
const maxKeptErrors = 8

// Stats summarizes one read of a possibly degraded input.
type Stats struct {
	// Lines is the number of non-blank lines seen.
	Lines int
	// Decoded is the number of usable records produced.
	Decoded int
	// Malformed counts lines that were not valid JSON (including a
	// truncated final line with no trailing newline).
	Malformed int
	// Invalid counts lines that decoded but failed validation (missing
	// server, departure before arrival, unknown direction).
	Invalid int
	// Errors holds the first few line errors, for diagnostics.
	Errors []LineError
}

// Skipped is the total number of unusable lines.
func (s Stats) Skipped() int { return s.Malformed + s.Invalid }

func (s *Stats) record(line int, malformed bool, err error) {
	if malformed {
		s.Malformed++
	} else {
		s.Invalid++
	}
	if len(s.Errors) < maxKeptErrors {
		s.Errors = append(s.Errors, LineError{Line: line, Err: err})
	}
}

var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxLineBytes)

// errAbort wraps an error that must stop the read immediately and
// propagate verbatim (a callback failure), bypassing the line policy.
type errAbort struct{ err error }

func (e errAbort) Error() string { return e.err.Error() }

// idleReader runs idle ahead of every Read of the source. bufio reads only
// when it holds no complete line, so idle runs exactly when the next line
// would have to wait for the source — observed from the reads the decoder
// makes anyway, at no cost per line.
type idleReader struct {
	r    io.Reader
	idle func() error
	err  error // what idle failed with; ends the read, returned verbatim
}

func (ir *idleReader) Read(p []byte) (int, error) {
	if ir.idle != nil {
		if ir.err = ir.idle(); ir.err != nil {
			return 0, ir.err
		}
	}
	return ir.r.Read(p)
}

// decodeLines drives the shared line-oriented read loop: decode is called
// with each non-blank line and reports whether the failure (if any) was a
// malformed line (bad JSON) or an invalid record. idle, when non-nil, is
// called before each read of r (see idleReader).
func decodeLines(r io.Reader, opts StreamOptions, idle func() error, decode func(line int, data []byte) (malformed bool, err error)) (Stats, error) {
	var stats Stats
	src := &idleReader{r: r, idle: idle}
	lr := lineReader{br: bufio.NewReaderSize(src, 64<<10)}
	for line := 1; ; line++ {
		data, rerr := lr.next()
		if src.err != nil {
			return stats, src.err
		}
		if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 {
			stats.Lines++
			malformed, derr := true, errLineTooLong
			if len(data) <= maxLineBytes {
				malformed, derr = decode(line, trimmed)
			}
			if derr != nil {
				var abort errAbort
				if errors.As(derr, &abort) {
					return stats, abort.err
				}
				if opts.Policy == Strict {
					return stats, fmt.Errorf("traceio: line %d: %w", line, derr)
				}
				stats.record(line, malformed, derr)
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return stats, nil
			}
			return stats, fmt.Errorf("traceio: read line %d: %w", line, rerr)
		}
	}
}

// StreamVisitsOpts reads JSONL visits until EOF, passing them to fn in
// non-empty batches of at most opts.BatchSize records (<= 0 uses
// DefaultBatch): a batch is handed over when it is full or when the next
// line would need a blocking read of r, so what has been decoded never
// waits for input that has not arrived. The batch slice is reused between
// calls — fn must not retain it. A non-nil error from fn aborts the
// stream and is returned verbatim. The zero StreamOptions decode
// strictly. Under Skip, corrupt or invalid lines are counted in the
// returned Stats and the stream resumes at the next newline; the error is
// non-nil only when the callback fails or the underlying reader fails.
// Stats are returned in every case, including on error, so callers can
// report partial progress. A read that fails
// hands over no record decoded since its last hand-off; how many were
// handed over before that depends on where the source's reads fell.
func StreamVisitsOpts(r io.Reader, opts StreamOptions, fn func(batch []trace.Visit) error) (Stats, error) {
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}
	batch := make([]trace.Visit, 0, batchSize)
	deliver := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := fn(batch)
		batch = batch[:0]
		return err
	}
	names := make(trace.Names)
	stats, err := decodeLines(r, opts, deliver, func(line int, data []byte) (bool, error) {
		rec, ok := fastVisit(data, names)
		if !ok { // its own record, so rec stays off the heap on the fast path
			slow := new(visitRecord)
			if err := json.Unmarshal(data, slow); err != nil {
				return true, fmt.Errorf("decode visit: %w", err)
			}
			rec = *slow
		}
		if rec.Server == "" {
			return false, errors.New("visit has no server")
		}
		if rec.DepartUS < rec.ArriveUS {
			return false, errors.New("visit departs before arriving")
		}
		batch = append(batch, trace.Visit{
			Server:     rec.Server,
			Class:      rec.Class,
			TxnID:      rec.TxnID,
			HopID:      rec.HopID,
			Arrive:     simnet.Time(rec.ArriveUS),
			Depart:     simnet.Time(rec.DepartUS),
			Downstream: simnet.Duration(rec.DownstrUS),
		})
		if len(batch) == batchSize {
			if err := deliver(); err != nil {
				return false, errAbort{err: err}
			}
		}
		return false, nil
	})
	stats.Decoded = stats.Lines - stats.Skipped()
	if err != nil {
		return stats, err
	}
	return stats, deliver()
}

// ReadVisits reads JSONL visits until EOF, materializing the whole trace.
// Prefer StreamVisitsOpts when the consumer can fold batches
// incrementally.
func ReadVisits(r io.Reader) ([]trace.Visit, error) {
	out, _, err := ReadVisitsOpts(r, StreamOptions{})
	return out, err
}

// ReadVisitsOpts is ReadVisits with an explicit error policy.
func ReadVisitsOpts(r io.Reader, opts StreamOptions) ([]trace.Visit, Stats, error) {
	var out []trace.Visit
	stats, err := StreamVisitsOpts(r, opts, func(batch []trace.Visit) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// WriteMessages writes wire messages as JSONL, as json.Encoder would
// messageRecords.
func WriteMessages(w io.Writer, msgs []trace.Message) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	for i, m := range msgs {
		line = appendInt(line[:0], `{"at_us":`, int64(m.At), false)
		line = appendStr(line, `,"from":`, m.From)
		line = appendStr(line, `,"to":`, m.To)
		line = appendStr(line, `,"dir":`, m.Dir.String())
		if m.Class != "" {
			line = appendStr(line, `,"class":`, m.Class)
		}
		line = appendInt(line, `,"conn":`, m.Conn, true)
		line = appendInt(line, `,"txn":`, m.TxnID, true)
		line = appendInt(line, `,"hop":`, m.HopID, true)
		line = appendInt(line, `,"parent":`, m.ParentHop, true)
		line = appendInt(line, `,"bytes":`, m.Bytes, true)
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("traceio: write message %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadMessagesOpts reads JSONL wire messages until EOF under the given
// error policy, reporting what it skipped.
func ReadMessagesOpts(r io.Reader, opts StreamOptions) ([]trace.Message, Stats, error) {
	var out []trace.Message
	names := make(trace.Names)
	stats, err := decodeLines(r, opts, nil, func(line int, data []byte) (bool, error) {
		rec, ok := fastMessage(data, names)
		if !ok {
			slow := new(messageRecord)
			if err := json.Unmarshal(data, slow); err != nil {
				return true, fmt.Errorf("decode message: %w", err)
			}
			rec = *slow
		}
		var dir trace.Direction
		switch rec.Dir {
		case "call":
			dir = trace.Call
		case "return":
			dir = trace.Return
		default:
			return false, fmt.Errorf("message has direction %q", rec.Dir)
		}
		out = append(out, trace.Message{
			At:        simnet.Time(rec.AtUS),
			From:      rec.From,
			To:        rec.To,
			Dir:       dir,
			Class:     rec.Class,
			Conn:      rec.Conn,
			TxnID:     rec.TxnID,
			HopID:     rec.HopID,
			ParentHop: rec.ParentHop,
			Bytes:     rec.Bytes,
		})
		return false, nil
	})
	stats.Decoded = stats.Lines - stats.Skipped()
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
