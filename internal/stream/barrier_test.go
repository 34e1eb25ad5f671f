package stream

import (
	"math/rand"
	"testing"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// TestNextBarrierIsTheTrigger: Observe moves the watermark exactly on the
// records that depart at or after NextBarrier, over a feed with disorder,
// gaps longer than a barrier period and repeated timestamps.
func TestNextBarrierIsTheTrigger(t *testing.T) {
	rt, err := New(Config{
		Online:   core.OnlineOptions{Options: core.Options{Interval: 50 * simnet.Millisecond}},
		Shards:   2,
		FlushLag: 120 * simnet.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rt.Alerts() {
		}
	}()
	rng := rand.New(rand.NewSource(3))
	var clock simnet.Time
	barriers := 0
	for i := 0; i < 5000; i++ {
		switch rng.Intn(50) {
		case 0:
			clock += simnet.Time(rng.Intn(900)) * simnet.Millisecond
		default:
			clock += simnet.Time(rng.Intn(3000))
		}
		depart := clock - simnet.Time(rng.Intn(40000)) // up to 40 ms of disorder
		if depart < 0 {
			depart = 0
		}
		next, before := rt.NextBarrier(), rt.Metrics().Watermark
		if err := rt.Observe(trace.Visit{Server: "s" + string(rune('a'+i%5)), Arrive: depart, Depart: depart}); err != nil {
			t.Fatal(err)
		}
		moved := rt.Metrics().Watermark != before
		if moved != (depart >= next) {
			t.Fatalf("record %d departing at %v: watermark moved = %v, NextBarrier was %v", i, depart, moved, next)
		}
		if moved {
			barriers++
		}
	}
	rt.Close()
	<-done
	if barriers < 10 {
		t.Fatalf("only %d barriers in the feed", barriers)
	}
}
