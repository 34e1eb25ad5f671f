package core

import (
	"fmt"
	"sort"
	"strings"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// TraceQuality summarizes how much of a degraded trace the lenient
// ingestion → assembly → analysis path could actually use, and what the
// repair passes did to the rest. It is filled incrementally: the decoder
// reports line counts, assembly reports quarantine counts, skew repair
// reports offsets, and AnalyzeSystemGrouped adds the analysis-side tally
// (servers skipped for lack of usable data) before attaching the report
// to the SystemAnalysis.
//
// A strict, clean run reports all-zero counts and coverage 1 — the
// report is cheap enough to always carry.
type TraceQuality struct {
	// LinesRead and LinesSkipped are the decoder's tally: non-blank input
	// lines seen, and lines dropped as corrupt (unparseable JSON).
	LinesRead    int
	LinesSkipped int

	// VisitsAssembled counts usable visit records; VisitsQuarantined
	// counts hops or records dropped as anomalous (orphan returns,
	// duplicates, negative spans, unterminated visits, invalid records).
	VisitsAssembled   int
	VisitsQuarantined int

	// Anomaly breakdown of the quarantine (wire-assembly path only).
	OrphanReturns     int
	DuplicateMessages int
	NegativeSpans     int
	InFlight          int
	TimedOut          int

	// SkewViolations counts causality violations observed before skew
	// repair; SkewOffsets are the applied per-server clock corrections;
	// VisitsRepaired counts records whose timestamps the repair moved.
	SkewViolations int
	SkewOffsets    map[string]simnet.Duration
	VisitsRepaired int

	// ServersSkipped counts servers whose per-server analysis was dropped
	// because the degraded trace left too little usable data.
	ServersSkipped int
}

// GroupRepaired is the last ingestion step of the lenient visit path,
// shared by the public Analyze and tbdetect -lenient: it repairs
// cross-server clock skew where TxnID linkage permits, in place (both
// callers own the slice they pass), tallies the repair into q, and groups
// the repaired visits per server, input order preserved within each. It also returns the latest departure after the
// repair — the repair moves clocks forward, so a window end taken before
// it could cut the shifted visits off — and the call graph of the
// repaired visits (trace.CallGraphBuilder), whose enclosures a skewed
// clock would break.
func GroupRepaired(visits []trace.Visit, q *TraceQuality) (map[string][]trace.Visit, simnet.Time, map[string][]string) {
	rep := trace.RepairVisitSkew(visits)
	q.SkewViolations = rep.Violations
	q.SkewOffsets = rep.Offsets
	q.VisitsRepaired = rep.Shifted
	var maxDepart simnet.Time
	var graph trace.CallGraphBuilder
	for _, v := range visits {
		if v.Depart > maxDepart {
			maxDepart = v.Depart
		}
		graph.Add(v)
	}
	return trace.PerServer(visits), maxDepart, graph.Graph()
}

// Coverage is the fraction of the observed input that survived into the
// analysis: assembled visits over assembled + quarantined + skipped
// lines. An empty report (nothing observed) counts as full coverage.
func (q *TraceQuality) Coverage() float64 {
	total := q.VisitsAssembled + q.VisitsQuarantined + q.LinesSkipped
	if total == 0 {
		return 1
	}
	return float64(q.VisitsAssembled) / float64(total)
}

// String renders the report as the aligned block the CLI prints.
func (q *TraceQuality) String() string {
	var b strings.Builder
	b.WriteString("trace quality:\n")
	row := func(label string, value string) {
		fmt.Fprintf(&b, "  %-26s %s\n", label, value)
	}
	row("lines read / skipped", fmt.Sprintf("%d / %d", q.LinesRead, q.LinesSkipped))
	row("visits assembled", fmt.Sprintf("%d", q.VisitsAssembled))
	quar := fmt.Sprintf("%d", q.VisitsQuarantined)
	if q.VisitsQuarantined > 0 {
		quar += fmt.Sprintf(" (orphan returns %d, duplicates %d, negative spans %d, in-flight %d, timed out %d)",
			q.OrphanReturns, q.DuplicateMessages, q.NegativeSpans, q.InFlight, q.TimedOut)
	}
	row("visits quarantined", quar)
	row("skew violations / repaired", fmt.Sprintf("%d / %d", q.SkewViolations, q.VisitsRepaired))
	if len(q.SkewOffsets) > 0 {
		names := make([]string, 0, len(q.SkewOffsets))
		for name := range q.SkewOffsets {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s +%v", name, simnet.Std(q.SkewOffsets[name])))
		}
		row("est. server skew", strings.Join(parts, ", "))
	}
	row("coverage", fmt.Sprintf("%.1f%%", 100*q.Coverage()))
	if q.ServersSkipped > 0 {
		row("servers skipped", fmt.Sprintf("%d", q.ServersSkipped))
	}
	return b.String()
}
