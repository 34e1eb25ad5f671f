package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/jvm"
	"transientbd/internal/metrics"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// GCCaseResult reproduces the JVM-GC case study (§IV-A/B, Figures 9–11):
// Tomcat under the serial "JDK 1.5" collector at WL 7,000 and WL 14,000,
// then the same WL 14,000 after the "JDK 1.6" upgrade.
type GCCaseResult struct {
	// Fig9a: Tomcat tier analysis at WL 7,000 (JDK 1.5) — mostly healthy.
	Fig9a *core.Analysis
	// Fig9b: Tomcat tier analysis at WL 14,000 (JDK 1.5) — frequent
	// transient bottlenecks with POIs.
	Fig9b *core.Analysis
	// Fig9cLoad/TP: a 10-second timeline excerpt at WL 14,000.
	Fig9cLoad, Fig9cTP []float64

	// Fig10: correlations at WL 14,000 (JDK 1.5).
	// GCLoadCorrelation is the (lag-adjusted) Pearson r between the
	// Tomcat GC running ratio and Tomcat load per 50 ms interval.
	GCLoadCorrelation float64
	// GCLoadRiseFraction is the fraction of stop-the-world collections
	// during which the frozen server's load rose — the direct causal
	// signature behind Fig 10(a): requests keep arriving while nothing
	// departs.
	GCLoadRiseFraction float64
	// LoadRTCorrelation is Pearson r between Tomcat load and system RT.
	LoadRTCorrelation float64
	// GCRatio, Load10, RT10 are 12-second excerpt series for rendering.
	GCRatio, Load10, RT10 []float64

	// Fig11a: Tomcat tier analysis at WL 14,000 with JDK 1.6.
	Fig11a *core.Analysis
	// RTFluctuation quantifies Fig 11(b) vs (c): the standard deviation
	// of the 50 ms-averaged system RT before (JDK 1.5) and after (1.6).
	RTSD15, RTSD16 float64
	// Collections observed per collector at WL 14,000.
	Collections15, Collections16 int
	// TotalPause15/16 are cumulative stop-the-world times.
	TotalPause15, TotalPause16 simnet.Duration
}

// gcThink is the client think time of the GC case study: long enough
// that WL 14,000 sits just below the knee, so the Tomcat bottleneck is
// transient (GC freezes and bursts) rather than a standing queue —
// matching the load profile of the paper's Fig 9(b)/(c).
const gcThink = 17 * simnet.Second

// GCCase runs the three experiments of the GC case study. SpeedStep is
// disabled everywhere (as in the paper's §IV-A setup).
func GCCase(opts RunOpts) (*GCCaseResult, error) {
	out := &GCCaseResult{}
	interval := 50 * simnet.Millisecond
	run := func(users int, collector jvm.CollectorKind) (*ntier.System, *ntier.Result, error) {
		cfg := testbed(users, opts)
		cfg.AppCollector = collector
		cfg.ThinkMean = gcThink
		return simulate(cfg)
	}

	// WL 7,000 with the serial collector (Fig 9a).
	_, res7, err := run(7000, jvm.CollectorSerial)
	if err != nil {
		return nil, fmt.Errorf("gc case wl7000: %w", err)
	}
	out.Fig9a, err = analyzeInstance(res7, "tomcat-1", interval)
	if err != nil {
		return nil, err
	}

	// WL 14,000 with the serial collector (Fig 9b/c, Fig 10, Fig 11c).
	sys15, res15, err := run(14000, jvm.CollectorSerial)
	if err != nil {
		return nil, fmt.Errorf("gc case wl14000 jdk15: %w", err)
	}
	out.Fig9b, err = analyzeInstance(res15, "tomcat-1", interval)
	if err != nil {
		return nil, err
	}
	w15 := core.Window{Start: res15.WindowStart, End: res15.WindowEnd}

	// 10-second excerpt (Fig 9c).
	exStart := res15.WindowStart + 5*simnet.Second
	exEnd := exStart + 10*simnet.Second
	if exEnd > res15.WindowEnd {
		exStart, exEnd = res15.WindowStart, res15.WindowEnd
	}
	out.Fig9cLoad = out.Fig9b.Load.Slice(exStart, exEnd)
	out.Fig9cTP = out.Fig9b.TP.Slice(exStart, exEnd)

	// Fig 10a: GC running ratio vs load, per Tomcat instance (each heap
	// freezes only its own server), averaged across instances.
	heaps := sys15.AppHeaps()
	apps := sys15.AppServers()
	var rSum float64
	var rN, risesUp, risesTotal int
	var tierGC *metrics.IntervalSeries
	for i, h := range heaps {
		out.Collections15 += h.Collections()
		out.TotalPause15 += h.TotalPause()
		ratio, err := h.RunningRatio(res15.WindowStart, res15.WindowEnd, interval)
		if err != nil {
			return nil, fmt.Errorf("gc ratio series: %w", err)
		}
		if i < len(apps) {
			instVisits := trace.Filter(res15.Visits, apps[i].Name())
			instLoad, err := core.LoadSeries(instVisits, w15, interval)
			if err != nil {
				return nil, err
			}
			// The load response trails the GC spike by a few intervals
			// (pile-up during the pause, drain after).
			r, _ := maxLaggedCorrelation(ratio.Values(), instLoad.Values(), 10)
			rSum += r
			rN++
			// Causal check per collection: compare the load just before
			// the pause with the load at its end.
			for _, ev := range h.Log() {
				for _, p := range ev.Pauses {
					before, errB := instLoad.Index(p[0] - interval)
					after, errA := instLoad.Index(p[1])
					if errB != nil || errA != nil {
						continue
					}
					risesTotal++
					if instLoad.Value(after) > instLoad.Value(before) {
						risesUp++
					}
				}
			}
		}
		if tierGC == nil {
			tierGC = ratio
		} else {
			for j := 0; j < tierGC.Len(); j++ {
				tierGC.Add(j, ratio.Value(j))
			}
		}
	}
	if rN > 0 {
		out.GCLoadCorrelation = rSum / float64(rN)
	}
	if risesTotal > 0 {
		out.GCLoadRiseFraction = float64(risesUp) / float64(risesTotal)
	}
	if tierGC != nil && len(heaps) > 0 {
		tierGC.Scale(1 / float64(len(heaps)))
	}
	gcSeries := tierGC

	// Fig 10b: load vs system RT.
	rt15, err := rtPerInterval(res15.Samples, w15, interval)
	if err != nil {
		return nil, err
	}
	out.LoadRTCorrelation = stats.PearsonR(out.Fig9b.Load.Values(), rt15.Values())
	out.GCRatio = gcSeries.Slice(exStart, exEnd)
	out.Load10 = out.Fig9b.Load.Slice(exStart, exEnd)
	out.RT10 = rt15.Slice(exStart, exEnd)
	out.RTSD15 = stats.StdDev(rt15.Values())

	// WL 14,000 with the concurrent collector (Fig 11).
	sys16, res16, err := run(14000, jvm.CollectorConcurrent)
	if err != nil {
		return nil, fmt.Errorf("gc case wl14000 jdk16: %w", err)
	}
	out.Fig11a, err = analyzeInstance(res16, "tomcat-1", interval)
	if err != nil {
		return nil, err
	}
	rt16, err := rtPerInterval(res16.Samples, core.Window{Start: res16.WindowStart, End: res16.WindowEnd}, interval)
	if err != nil {
		return nil, err
	}
	out.RTSD16 = stats.StdDev(rt16.Values())
	for _, h := range sys16.AppHeaps() {
		out.Collections16 += h.Collections()
		out.TotalPause16 += h.TotalPause()
	}
	return out, nil
}

// Table renders the case-study comparison.
func (r *GCCaseResult) Table() *Table {
	t := &Table{
		Title:  "Figures 9-11: JVM GC case study (Tomcat tier, SpeedStep off)",
		Header: []string{"Metric", "WL7k JDK1.5", "WL14k JDK1.5", "WL14k JDK1.6"},
	}
	t.AddRow("congested fraction",
		fmt.Sprintf("%.3f", r.Fig9a.CongestedFraction),
		fmt.Sprintf("%.3f", r.Fig9b.CongestedFraction),
		fmt.Sprintf("%.3f", r.Fig11a.CongestedFraction))
	t.AddRow("POIs (freeze intervals)",
		len(r.Fig9a.POIs), len(r.Fig9b.POIs), len(r.Fig11a.POIs))
	t.AddRow("N*",
		fmt.Sprintf("%.1f", r.Fig9a.NStar.NStar),
		fmt.Sprintf("%.1f", r.Fig9b.NStar.NStar),
		fmt.Sprintf("%.1f", r.Fig11a.NStar.NStar))
	t.AddRow("collections", "-", r.Collections15, r.Collections16)
	t.AddRow("total STW pause", "-",
		fmt.Sprintf("%v", simnet.Std(r.TotalPause15)),
		fmt.Sprintf("%v", simnet.Std(r.TotalPause16)))
	t.AddRow("RT sd @50ms (s)", "-",
		fmt.Sprintf("%.3f", r.RTSD15),
		fmt.Sprintf("%.3f", r.RTSD16))
	t.AddRow("GC-ratio vs load r", "-", fmt.Sprintf("%.3f", r.GCLoadCorrelation), "-")
	t.AddRow("load rises during GC", "-", fmt.Sprintf("%.0f%%", 100*r.GCLoadRiseFraction), "-")
	t.AddRow("load vs RT r", "-", fmt.Sprintf("%.3f", r.LoadRTCorrelation), "-")
	return t
}

// TimelineString renders the Fig 9c / Fig 10 excerpt strips.
func (r *GCCaseResult) TimelineString() string {
	return fmt.Sprintf(
		"Fig 9(c) Tomcat load @50ms:  %s\nFig 9(c) Tomcat tp @50ms:    %s\nFig 10a GC running ratio:    %s\nFig 10b system RT @50ms:     %s\n",
		Sparkline(r.Fig9cLoad, 80), Sparkline(r.Fig9cTP, 80),
		Sparkline(r.GCRatio, 80), Sparkline(r.RT10, 80))
}
