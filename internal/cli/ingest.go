package cli

import (
	"io"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// decodeRing is how many batches decodeAhead owns: enough that the decoder
// seldom waits for the consumer to hand one back, few enough to stay a few
// megabytes.
const decodeRing = 4

// decodeAhead is traceio.StreamVisitsOpts with the decoding on a goroutine
// of its own, so fn's work overlaps the decoding of later batches. Each
// batch is copied into one of decodeRing owned buffers and handed to fn on
// the caller's goroutine, in decode order. The Stats and errors are
// StreamVisitsOpts', except that an error from fn stops the decoder and is
// returned instead. The decoder has exited when decodeAhead returns.
func decodeAhead(r io.Reader, opts traceio.StreamOptions, fn func(batch []trace.Visit) error) (stats traceio.Stats, err error) {
	free := make(chan []trace.Visit, decodeRing)
	for range decodeRing {
		free <- make([]trace.Visit, 0, traceio.DefaultBatch)
	}
	full := make(chan []trace.Visit, decodeRing) // never holds more than the ring, so no send blocks
	var derr error
	go func() {
		defer close(full)
		stats, derr = traceio.StreamVisitsOpts(r, opts, func(batch []trace.Visit) error {
			buf, ok := <-free
			if !ok {
				return io.ErrClosedPipe // fn failed, and its error is returned instead
			}
			full <- append(buf[:0], batch...)
			return nil
		})
	}()
	for batch := range full {
		if err != nil {
			continue
		}
		if err = fn(batch); err != nil {
			close(free) // the decoder stops once it has used the buffers left
		} else {
			free <- batch
		}
	}
	if err == nil {
		err = derr
	}
	return stats, err
}

// readVisits reads a JSONL visit trace through decodeAhead and groups it
// per server, tallying the read into q, and returns what
// core.GroupRepaired does. A strict read folds each batch in as it
// arrives; a lenient one keeps the usable visits whole for GroupRepaired,
// since skew repair needs whole transactions.
func readVisits(r io.Reader, opts traceio.StreamOptions, q *core.TraceQuality) (map[string][]trace.Visit, simnet.Time, map[string][]string, error) {
	var visits []trace.Visit
	var g trace.Grouper
	var graph trace.CallGraphBuilder
	var maxDepart simnet.Time
	stats, err := decodeAhead(r, opts, func(batch []trace.Visit) error {
		q.VisitsAssembled += len(batch)
		if opts.Policy != traceio.Strict {
			visits = append(visits, batch...)
			return nil
		}
		for _, v := range batch {
			g.Add(v)
			maxDepart = max(maxDepart, v.Depart)
			graph.Add(v)
		}
		return nil
	})
	q.LinesRead, q.LinesSkipped, q.VisitsQuarantined = stats.Lines, stats.Malformed, stats.Invalid
	if err != nil {
		return nil, 0, nil, err
	}
	if opts.Policy == traceio.Strict {
		return g.Groups(), maxDepart, graph.Graph(), nil
	}
	perServer, maxDepart, callGraph := core.GroupRepaired(visits, q)
	return perServer, maxDepart, callGraph, nil
}
