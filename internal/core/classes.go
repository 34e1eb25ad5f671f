package core

import (
	"sort"

	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// ClassStat summarizes one request class's experience at a server during
// an analysis window — the drill-down an operator runs after the ranking
// points at a server: which interactions are caught in the congestion
// episodes, and how much slower they get.
type ClassStat struct {
	// Class is the request class name.
	Class string
	// Count is the number of completions in the window.
	Count int
	// CongestedShare is the fraction of this class's completions that
	// landed in congested intervals.
	CongestedShare float64
	// MeanResidence and P95Residence summarize the class's total time at
	// the server.
	MeanResidence, P95Residence simnet.Duration
	// CongestedSlowdown is the ratio of mean residence inside congested
	// intervals to mean residence outside them (1.0 = unaffected; 0 when
	// either side has no samples).
	CongestedSlowdown float64
}

// ClassBreakdown computes per-class statistics for one server's visits
// against its analysis. Visits completing outside the analysis window are
// ignored. Classes are returned sorted by congested share, worst first.
func ClassBreakdown(visits []trace.Visit, a *Analysis) []ClassStat {
	type agg struct {
		residences []float64
		congested  int
		inSum      float64
		inN        int
		outSum     float64
		outN       int
	}
	byClass := make(map[string]*agg)
	for _, v := range visits {
		idx, ok := a.Load.Lookup(v.Depart)
		if !ok {
			continue
		}
		g := byClass[v.Class]
		if g == nil {
			g = &agg{}
			byClass[v.Class] = g
		}
		res := float64(v.Residence())
		g.residences = append(g.residences, res)
		if a.States[idx] == StateCongested {
			g.congested++
			g.inSum += res
			g.inN++
		} else {
			g.outSum += res
			g.outN++
		}
	}
	out := make([]ClassStat, 0, len(byClass))
	for class, g := range byClass {
		st := ClassStat{Class: class, Count: len(g.residences)}
		if st.Count > 0 {
			st.CongestedShare = float64(g.congested) / float64(st.Count)
			st.MeanResidence = simnet.Duration(stats.Mean(g.residences))
			if p95, err := stats.Percentile(g.residences, 95); err == nil {
				st.P95Residence = simnet.Duration(p95)
			}
		}
		if g.inN > 0 && g.outN > 0 && g.outSum > 0 {
			st.CongestedSlowdown = (g.inSum / float64(g.inN)) / (g.outSum / float64(g.outN))
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CongestedShare != out[j].CongestedShare {
			return out[i].CongestedShare > out[j].CongestedShare
		}
		return out[i].Class < out[j].Class
	})
	return out
}
