package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Fig6Result reproduces Figure 6: load calculation from interleaved
// arrival/departure timestamps over two 100 ms intervals.
type Fig6Result struct {
	Loads []float64
}

// Fig6 runs the deterministic Fig 6 construction.
func Fig6() (*Fig6Result, error) {
	ms := simnet.Millisecond
	visits := []trace.Visit{
		{Server: "s", Class: "a", Arrive: 20 * ms, Depart: 70 * ms},
		{Server: "s", Class: "a", Arrive: 110 * ms, Depart: 160 * ms},
		{Server: "s", Class: "a", Arrive: 130 * ms, Depart: 190 * ms},
	}
	load, err := core.LoadSeries(visits, core.Window{Start: 0, End: 200 * ms}, 100*ms)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Loads: load.Values()}, nil
}

// Table renders Fig 6.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:  "Figure 6: time-weighted load over two 100ms intervals",
		Header: []string{"Interval", "Load"},
	}
	for i, l := range r.Loads {
		t.AddRow(fmt.Sprintf("T%d", i), fmt.Sprintf("%.2f", l))
	}
	return t
}

// Fig7Result reproduces Figure 7: work-unit throughput normalization under
// a two-class mix (Req1 = 30 ms, Req2 = 10 ms, unit = 10 ms).
type Fig7Result struct {
	Loads           []float64
	Straightforward []float64
	Normalized      []float64
	Unit            simnet.Duration
}

// Fig7 runs the deterministic Fig 7 construction.
func Fig7() (*Fig7Result, error) {
	ms := simnet.Millisecond
	v := func(class string, arrive, depart simnet.Time) trace.Visit {
		return trace.Visit{Server: "s", Class: class, Arrive: arrive, Depart: depart}
	}
	visits := []trace.Visit{
		v("Req1", 10*ms, 40*ms), v("Req1", 50*ms, 80*ms),
		v("Req1", 110*ms, 140*ms), v("Req2", 160*ms, 170*ms),
		v("Req2", 200*ms, 210*ms), v("Req2", 215*ms, 225*ms),
		v("Req2", 230*ms, 240*ms), v("Req2", 245*ms, 255*ms),
	}
	w := core.Window{Start: 0, End: 300 * ms}
	svc := core.ServiceTimes{"Req1": 30 * ms, "Req2": 10 * ms}
	unit := 10 * ms // the paper's unit for this example, not the detector's 100 µs quantum

	load, err := core.LoadSeries(visits, w, 100*ms)
	if err != nil {
		return nil, err
	}
	raw, err := core.ThroughputSeries(visits, w, 100*ms)
	if err != nil {
		return nil, err
	}
	norm, err := core.NormalizedThroughputSeries(visits, svc, unit, w, 100*ms)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{Unit: unit, Loads: load.Values()}
	for i := 0; i < raw.Len(); i++ {
		out.Straightforward = append(out.Straightforward, raw.Value(i)*0.1)
		out.Normalized = append(out.Normalized, norm.Value(i)*0.1)
	}
	return out, nil
}

// Table renders Fig 7 with the paper's exact numbers (6/4/4 vs 2/2/4).
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7: throughput normalization (work unit %v)", r.Unit),
		Header: []string{"Interval", "Load", "Straightforward tp", "Normalized tp (units)"},
	}
	for i := range r.Loads {
		t.AddRow(fmt.Sprintf("TW%d", i),
			fmt.Sprintf("%.1f", r.Loads[i]),
			fmt.Sprintf("%.0f", r.Straightforward[i]),
			fmt.Sprintf("%.0f", r.Normalized[i]))
	}
	return t
}
