// White-box allocation-budget tests for the shard ingest hot path. They
// drive the shard message handlers synchronously through a runtime built
// by newRuntime (no goroutines), because testing.AllocsPerRun counts
// global mallocs — work happening concurrently on other goroutines would
// make the measurement nondeterministic.
package stream

import (
	"testing"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// ingestAllocBudget is the steady-state allocation budget, in heap
// allocations per record, for the shard ingest path: batch apply
// (handleBatch → observeShard → core.Online.Observe), retention, the
// watermark barrier (handleEpoch → AdvanceAppend), and the merger
// hand-off buffer. Zero — after warmup every structure on the path is
// pooled or reused. This is the contract documented in PERFORMANCE.md;
// raising it requires a PERFORMANCE.md edit and a baseline regeneration,
// not just a constant bump.
const ingestAllocBudget = 0

// TestIngestAllocBudget pins the steady-state allocations per record on
// the shard ingest path to ingestAllocBudget.
//
// Each measured step is one full cycle of the shard's life: a 256-record
// batch applied and retained, then a watermark barrier closing one
// interval and shipping its alerts toward the merger (drained inline,
// buffer returned to the pool — exactly what runMerger does). Amortized
// work is pushed out of the measured region: N* re-estimation via a huge
// ReestimateEvery (it rebuilds the fit curve, and is per-interval-period,
// not per-record), and the retention ring reaches its eviction steady
// state during warmup so pooled batches recycle instead of growing.
func TestIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is meaningless under -race")
	}
	const interval = 50 * simnet.Millisecond
	r, err := newRuntime(Config{
		Online: core.OnlineOptions{
			Options:         core.Options{Interval: interval, ServiceTimes: core.ServiceTimes{"q": 2 * simnet.Millisecond}},
			ReestimateEvery: 1 << 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.shards[0]

	// Pre-built rows, timestamps rewritten in place each step so no
	// record construction is attributed to the measured region.
	var rows [batchSize]trace.Visit
	for i := range rows {
		rows[i] = trace.Visit{Server: "srv", Class: "q", TxnID: int64(i)}
	}
	var (
		now   simnet.Time
		epoch int64
	)
	step := func() {
		b := getBatch()
		for i := range rows {
			arrive := now + simnet.Time(i)*100*simnet.Microsecond
			rows[i].Arrive = arrive
			rows[i].Depart = arrive + 2*simnet.Millisecond
			b.rows = append(b.rows, rows[i])
		}
		r.handleBatch(s, b)
		now += interval
		epoch++
		r.handleEpoch(s, shardMsg{epoch: epoch, now: now})
		// Stand in for the merger: fold the epoch's alerts and return the
		// pooled buffer (r.merge is buffered, so the send above did not
		// block).
		msg := <-r.merge
		if msg.alerts != nil {
			putAlerts(msg.alerts)
		}
	}
	// Warmup: fill the retention ring past its cap so each step's getBatch
	// is fed by the previous step's eviction, and grow every reused buffer
	// (alert buffers, coreBuf, the analyzer ring) to steady-state size.
	warmup := retainCap/batchSize + 16
	for i := 0; i < warmup; i++ {
		step()
	}
	avg := testing.AllocsPerRun(200, step)
	perRecord := avg / batchSize
	if perRecord > ingestAllocBudget {
		t.Fatalf("ingest path allocated %.4f/record (%.1f per %d-record step) in steady state, budget %d",
			perRecord, avg, batchSize, ingestAllocBudget)
	}
	if got := r.late.Load(); got != 0 {
		t.Fatalf("test fed %d late records; the budget must be measured on the in-window path", got)
	}
}

// TestBatchPoolRoundTrip guards the batch recycling protocol: a pooled
// batch comes back empty, with its capacity intact and every cell zeroed
// (so it does not pin the previous window's names).
func TestBatchPoolRoundTrip(t *testing.T) {
	b := getBatch()
	for i := 0; i < batchSize; i++ {
		b.rows = append(b.rows, trace.Visit{Server: "srv", Class: "q", TxnID: int64(i), Arrive: 1, Depart: 2})
	}
	rows := b.rows[:cap(b.rows)]
	putBatch(b)
	if len(b.rows) != 0 {
		t.Fatalf("recycled batch has len %d, want 0", len(b.rows))
	}
	for i := range rows {
		if rows[i] != (trace.Visit{}) {
			t.Fatalf("recycled batch still holds row %d: %+v", i, rows[i])
		}
	}
	b2 := getBatch()
	if cap(b2.rows) < batchSize {
		t.Fatalf("pooled batch lost capacity: %d", cap(b2.rows))
	}
	putBatch(b2)
}
