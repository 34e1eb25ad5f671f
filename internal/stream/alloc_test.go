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
		// Small queue so retention (cap 4×QueueDepth records) hits its
		// eviction steady state within warmup.
		QueueDepth: 256,
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
			b.push(&rows[i])
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
	warmup := r.retainCap/batchSize + 16
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
// batch comes back empty, with its capacity intact and its string cells
// cleared (so it does not pin the previous window's names).
func TestBatchPoolRoundTrip(t *testing.T) {
	b := getBatch()
	for i := 0; i < batchSize; i++ {
		b.push(&trace.Visit{Server: "srv", Class: "q", TxnID: int64(i), Arrive: 1, Depart: 2})
	}
	if b.len() != batchSize {
		t.Fatalf("pushed %d records, len() = %d", batchSize, b.len())
	}
	server := b.server[:cap(b.server)]
	putBatch(b)
	if b.len() != 0 {
		t.Fatalf("recycled batch has len %d, want 0", b.len())
	}
	for i := range server {
		if server[i] != "" {
			t.Fatalf("recycled batch still pins server string at row %d: %q", i, server[i])
		}
	}
	b2 := getBatch()
	if cap(b2.server) < batchSize || cap(b2.depart) < batchSize {
		t.Fatalf("pooled batch lost capacity: server %d, depart %d", cap(b2.server), cap(b2.depart))
	}
	putBatch(b2)
}

// TestBatchVisitRoundTrip guards the columnar encode/decode: push then
// visit must reproduce the record field-for-field, and set must overwrite
// a row in place.
func TestBatchVisitRoundTrip(t *testing.T) {
	b := getBatch()
	defer putBatch(b)
	in := trace.Visit{
		Server: "db-1", Class: "heavy", TxnID: 42, HopID: 7,
		Arrive: 1000, Depart: 2500, Downstream: 300,
	}
	b.push(&in)
	if got := b.visit(0); got != in {
		t.Fatalf("visit(0) = %+v, want %+v", got, in)
	}
	mod := in
	mod.Depart = 9999
	mod.Server = "db-2"
	b.set(0, &mod)
	if got := b.visit(0); got != mod {
		t.Fatalf("after set, visit(0) = %+v, want %+v", got, mod)
	}
}
