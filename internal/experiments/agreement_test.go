package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// agreementCeilings bound how many server-intervals a self-estimated
// core.Online's Snapshot classifies differently from AnalyzeServer on the
// same visits (onlineDisagreements): the six presets' total, and each
// case-study run's. The sum is the online-vs-batch agreement total; a
// change that raises a count fails, one that lowers it lowers the ceiling.
var agreementCeilings = map[string]int{
	"presets":                1005,
	"serial GC at WL 14 000": 65,
	"SpeedStep at WL 8 000":  65,
}

// onlineDisagreements feeds each server's visits of inWin — a run's visits
// departing inside its window, in completion order — to a self-estimated core.Online whose
// sliding window covers the run, advanced as a stream shard advances it:
// a barrier every 8 intervals, 1 s behind the newest departure. It returns,
// per server, how many intervals the final Snapshot classifies differently
// from AnalyzeServer over the same visits and window.
func onlineDisagreements(res *ntier.Result, inWin []trace.Visit) (map[string]int, error) {
	const (
		iv      = 50 * simnet.Millisecond
		lag     = simnet.Second
		barrier = 8 * iv
	)
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	if w.Span() > core.DefaultWindow {
		return nil, fmt.Errorf("run window %v exceeds the online window %v", w.Span(), core.DefaultWindow)
	}
	out := make(map[string]int)
	for name, visits := range trace.PerServer(inWin) {
		batch, err := core.AnalyzeServer(name, visits, w, core.Options{Interval: iv})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		o, err := core.NewOnline(w.Start, core.OnlineOptions{Options: core.Options{Interval: iv}})
		if err != nil {
			return nil, err
		}
		var alerts []core.Alert
		mark := w.Start
		for _, v := range visits {
			o.Observe(v)
			if wm := (v.Depart - lag) / iv * iv; wm >= mark+barrier {
				alerts = o.AdvanceAppend(wm, alerts[:0])
				mark = wm
			}
		}
		o.Advance(w.End)
		snap := o.Snapshot()
		if snap == nil || len(snap.States) != len(batch.States) {
			return nil, fmt.Errorf("%s: online snapshot does not cover batch's %d intervals", name, len(batch.States))
		}
		for i, s := range snap.States {
			if s != batch.States[i] {
				out[name]++
			}
		}
	}
	return out, nil
}

// checkAgreement fails t when the per-server disagreement counts of the
// runs labelled by group exceed its ceiling, and logs the table.
func checkAgreement(t *testing.T, group string, counts map[string]int) {
	t.Helper()
	names := make([]string, 0, len(counts))
	total := 0
	for name, n := range counts {
		names = append(names, name)
		total += n
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, counts[name])
	}
	ceiling, ok := agreementCeilings[group]
	switch {
	case !ok:
		t.Errorf("no agreement ceiling for %s", group)
	case total > ceiling:
		t.Errorf("%s: online snapshot differs from batch in %d server-intervals, ceiling %d:%s", group, total, ceiling, b.String())
	default:
		t.Logf("%s: online snapshot differs from batch in %d server-intervals (ceiling %d):%s", group, total, ceiling, b.String())
	}
}
