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
// .ServiceTimes set): normalization is fixed, so no delay histogram is fed
// and no service table is rebuilt. The self-estimated path allocates a
// new table map at each rebuild, which happens only as intervals close
// (every ReestimateEvery intervals once N* exists), so it is amortized
// and deliberately not pinned to zero. N* re-estimation is likewise
// amortized; the test pushes it out of the measured region to isolate
// the per-record cost, which is what must be flat.
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
