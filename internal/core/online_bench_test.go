package core

import (
	"fmt"
	"math/rand"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// BenchmarkOnlineObserveSelfEstimated times Observe on the self-estimated
// path at the shape of a database tier in the repository benchmark's
// trace: 95 classes in a skewed mix, 10 k records a trace second in
// departure order, a 30 s window of 50 ms intervals, and AdvanceAppend
// every 8 intervals one second behind the feed, as a shard does at its
// barriers. Every Observe counts a delay into its class's histogram for
// the current re-estimation epoch. The 15 s warm-up gets past the first
// N*, so the service table is rebuilt only at the periodic N*
// re-estimation, every 20 s of trace. One op is one Observe plus its share
// of the AdvanceAppend calls.
func BenchmarkOnlineObserveSelfEstimated(b *testing.B) {
	const (
		classes = 95
		gap     = 100 * simnet.Microsecond
		iv      = 50 * simnet.Millisecond
		lag     = simnet.Second
		warm    = 150_000
	)
	rng := rand.New(rand.NewSource(1))
	type visit struct {
		class string
		resid simnet.Duration
	}
	feed := make([]visit, 1<<16) // cycled
	for i := range feed {
		u := rng.Float64()
		c := int(u * u * classes)
		feed[i] = visit{fmt.Sprintf("class-%02d", c), simnet.Duration(150+50*(c%10)+rng.Intn(2000)) * simnet.Microsecond}
	}
	o, err := NewOnline(0, OnlineOptions{Options: Options{Interval: iv}, WindowIntervals: 600})
	if err != nil {
		b.Fatal(err)
	}
	var (
		alerts []Alert
		mark   simnet.Time
		n      int
	)
	observe := func() {
		v := feed[n%len(feed)]
		depart := simnet.Time(n)*gap + simnet.Second
		o.Observe(trace.Visit{Server: "db", Class: v.class, Arrive: depart - v.resid, Depart: depart})
		if w := ((depart - lag) / iv) * iv; w >= mark+8*iv {
			alerts = o.AdvanceAppend(w, alerts[:0])
			mark = w
		}
		n++
	}
	for range warm {
		observe()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		observe()
	}
}
