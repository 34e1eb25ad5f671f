package core

import (
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// onlineAllocBudget is the steady-state allocation budget for the
// streaming analyzer's per-record path: Observe plus AdvanceAppend into a
// caller-owned buffer must not allocate at all once warmed up, when a
// calibrated service-time table is supplied and N* re-estimation is not
// due. This is the analyzer half of the allocation-budget contract in
// PERFORMANCE.md; the shard-runtime half is pinned by
// stream.TestIngestAllocBudget.
const onlineAllocBudget = 0

// TestOnlineObserveAllocBudget pins the analyzer's steady-state cost:
// after warmup, a full interval's worth of Observe calls plus the
// AdvanceAppend that closes the interval performs exactly
// onlineAllocBudget (zero) heap allocations.
//
// The budget holds on the calibrated-table path (OnlineOptions
// .ServiceTimes set): normalization is fixed, so no reservoir is fed and
// no service table is rebuilt. The drifting-reservoir path is amortized
// instead — it rebuilds its service-time map every svcRefresh
// observations — and is deliberately not pinned to zero. N*
// re-estimation is likewise amortized (every ReestimateEvery intervals);
// the test pushes it out of the measured region to isolate the
// per-record cost, which is what must be flat.
func TestOnlineObserveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is meaningless under -race")
	}
	const (
		interval = 50 * simnet.Millisecond
		perStep  = 64 // observations per closed interval
	)
	o, err := NewOnline(0, OnlineOptions{
		Options:         Options{Interval: interval, ServiceTimes: ServiceTimes{"q": 2 * simnet.Millisecond}},
		ReestimateEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		now simnet.Time
		buf []Alert
	)
	step := func() {
		for i := 0; i < perStep; i++ {
			arrive := now + simnet.Time(i)*500*simnet.Microsecond
			o.Observe(trace.Visit{
				Server: "srv",
				Class:  "q",
				TxnID:  int64(i),
				Arrive: arrive,
				Depart: arrive + 2*simnet.Millisecond,
			})
		}
		now += interval
		buf = o.AdvanceAppend(now, buf[:0])
	}
	// Warmup: grow the alert buffer and any lazily-initialized caches to
	// their steady-state size.
	for i := 0; i < 20; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg > onlineAllocBudget {
		t.Fatalf("Observe×%d+AdvanceAppend allocated %.2f/interval in steady state, budget %d",
			perStep, avg, onlineAllocBudget)
	}
}

// TestOnlineSnapshotIntoReuse verifies the buffer-reusing snapshot form:
// SnapshotInto must reuse the destination's Load/TP storage when capacity
// suffices, and its contents must match a fresh Snapshot.
func TestOnlineSnapshotIntoReuse(t *testing.T) {
	const interval = 50 * simnet.Millisecond
	o, err := NewOnline(0, OnlineOptions{
		Options: Options{Interval: interval, ServiceTimes: ServiceTimes{"q": 2 * simnet.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var now simnet.Time
	for i := 0; i < 200; i++ {
		for j := 0; j < 8; j++ {
			arrive := now + simnet.Time(j)*3*simnet.Millisecond
			o.Observe(trace.Visit{Server: "srv", Class: "q", Arrive: arrive, Depart: arrive + 2*simnet.Millisecond})
		}
		now += interval
		o.Advance(now)
	}
	fresh := o.Snapshot()
	if fresh == nil {
		t.Fatal("expected a snapshot after 200 closed intervals")
	}
	var dst OnlineSnapshot
	got := o.SnapshotInto(&dst)
	if got != &dst {
		t.Fatalf("SnapshotInto returned %p, want the destination %p", got, &dst)
	}
	if len(got.Load) != len(fresh.Load) || len(got.TP) != len(fresh.TP) {
		t.Fatalf("SnapshotInto lengths (%d,%d) != Snapshot (%d,%d)",
			len(got.Load), len(got.TP), len(fresh.Load), len(fresh.TP))
	}
	for i := range fresh.Load {
		if got.Load[i] != fresh.Load[i] || got.TP[i] != fresh.TP[i] {
			t.Fatalf("interval %d: SnapshotInto (%v,%v) != Snapshot (%v,%v)",
				i, got.Load[i], got.TP[i], fresh.Load[i], fresh.TP[i])
		}
	}
	// Reuse: a second SnapshotInto with ample capacity must keep the same
	// backing arrays.
	loadPtr, tpPtr := &got.Load[0], &got.TP[0]
	got2 := o.SnapshotInto(&dst)
	if &got2.Load[0] != loadPtr || &got2.TP[0] != tpPtr {
		t.Fatal("SnapshotInto reallocated storage despite sufficient capacity")
	}
}
