package transientbd

import (
	"fmt"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// ClassStat is the per-request-class drill-down for one server: which
// interaction classes are caught in the congestion episodes and how much
// slower they run there.
type ClassStat struct {
	// Class is the request class name.
	Class string
	// Count is the number of completions analyzed.
	Count int
	// CongestedShare is the fraction of the class's completions that
	// landed in congested intervals.
	CongestedShare float64
	// MeanResidence and P95Residence summarize time at the server.
	MeanResidence, P95Residence time.Duration
	// CongestedSlowdown is mean residence inside congested intervals over
	// mean residence outside (0 when either side is empty).
	CongestedSlowdown float64
}

// IntervalChoice is one candidate monitoring interval with its score.
type IntervalChoice struct {
	// Interval is the candidate length.
	Interval time.Duration
	// Fidelity is the below-knee load/throughput correlation (too-short
	// intervals blur the curve, Fig 8a of the paper).
	Fidelity float64
	// Resolution is the candidate's peak load relative to the finest
	// candidate's (too-long intervals average transients away, Fig 8c).
	Resolution float64
	// Score is Fidelity × Resolution; the highest wins.
	Score float64
}

// serverVisits converts the records naming server, in input order, and
// returns them with the latest departure among them.
func serverVisits(records []Record, server string) ([]trace.Visit, simnet.Time, error) {
	if server == "" {
		return nil, 0, fmt.Errorf("transientbd: empty server name")
	}
	var visits []trace.Visit
	var maxDepart simnet.Time
	for i := range records {
		if records[i].Server != server {
			continue
		}
		v := recordToVisit(&records[i])
		if v.Depart > maxDepart {
			maxDepart = v.Depart
		}
		visits = append(visits, v)
	}
	if len(visits) == 0 {
		return nil, 0, fmt.Errorf("transientbd: no records for server %q", server)
	}
	return visits, maxDepart, nil
}

// ChooseInterval implements the paper's stated future work: automatic
// selection of the monitoring interval length for one server. It scores
// each candidate by curve fidelity × transient resolution and returns the
// winner plus the full table. A nil candidate list evaluates 10 ms–1 s.
func ChooseInterval(records []Record, server string, candidates []time.Duration) (time.Duration, []IntervalChoice, error) {
	visits, maxDepart, err := serverVisits(records, server)
	if err != nil {
		return 0, nil, err
	}
	w := core.Window{Start: 0, End: maxDepart + 1}
	var cands []simnet.Duration
	for _, c := range candidates {
		cands = append(cands, simnet.FromStdDuration(c))
	}
	best, table, err := core.ChooseInterval(visits, w, cands)
	if err != nil {
		return 0, nil, fmt.Errorf("transientbd: choose interval: %w", err)
	}
	out := make([]IntervalChoice, len(table))
	for i, c := range table {
		out[i] = IntervalChoice{
			Interval:   simnet.Std(c.Interval),
			Fidelity:   c.Fidelity,
			Resolution: c.Resolution,
			Score:      c.Score,
		}
	}
	return simnet.Std(best), out, nil
}

// Classes analyzes one server's records and breaks the result down per
// request class, worst-affected first. Use it after Analyze's ranking has
// singled a server out: the server is judged under the same options
// Analyze derives from cfg (calibrated service times included), so the
// breakdown refers to the congestion point Analyze reported.
func Classes(records []Record, server string, cfg Config) ([]ClassStat, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	visits, maxDepart, err := serverVisits(records, server)
	if err != nil {
		return nil, err
	}
	for _, v := range visits {
		if v.Depart < v.Arrive {
			return nil, fmt.Errorf("transientbd: record departs before it arrives")
		}
	}
	a, err := core.AnalyzeServer(server, visits, cfg.window(maxDepart), opts)
	if err != nil {
		return nil, fmt.Errorf("transientbd: analyze %q: %w", server, err)
	}
	breakdown := core.ClassBreakdown(visits, a)
	out := make([]ClassStat, len(breakdown))
	for i, b := range breakdown {
		out[i] = ClassStat{
			Class:             b.Class,
			Count:             b.Count,
			CongestedShare:    b.CongestedShare,
			MeanResidence:     simnet.Std(b.MeanResidence),
			P95Residence:      simnet.Std(b.P95Residence),
			CongestedSlowdown: b.CongestedSlowdown,
		}
	}
	return out, nil
}
