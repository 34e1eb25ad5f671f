package cli

import (
	"io"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// readVisits reads a JSONL visit trace, decoded on workers goroutines
// (traceio.StreamVisitsParallel), and groups it per server, tallying the
// read into q, and returns what core.GroupRepaired does. A strict read
// folds each batch in, in input order, as it arrives; a lenient one keeps
// the usable visits whole for GroupRepaired, since skew repair needs whole
// transactions.
func readVisits(r io.Reader, opts traceio.StreamOptions, workers int, q *core.TraceQuality) (map[string][]trace.Visit, simnet.Time, map[string][]string, error) {
	var visits []trace.Visit
	var g trace.Grouper
	var graph trace.CallGraphBuilder
	var maxDepart simnet.Time
	stats, err := traceio.StreamVisitsParallel(r, opts, workers, func(batch []trace.Visit) error {
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
