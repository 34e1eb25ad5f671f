// Pooled record batches for the ingest hot path. Records move from the
// producer to the shard goroutines as rows: one contiguous []trace.Visit
// of capacity batchSize per batch, handed over with a single pointer send
// and recycled through a sync.Pool. The pool is what keeps the
// producer→shard path allocation-free per record after warmup (the
// allocation-budget contract in PERFORMANCE.md, pinned by
// TestIngestAllocBudget); every consumer reads whole records, so the rows
// are stored whole.
package stream

import (
	"sync"

	"transientbd/internal/trace"
)

// recordBatch is a fixed-capacity batch of visits. Ownership moves with
// the batch: producer → shard queue → retention (for crash replay) →
// pool. A batch is recycled via putBatch exactly once, by whichever stage
// drops it (backpressure drop, retention eviction, checkpoint cut, or
// abandonment).
type recordBatch struct {
	rows []trace.Visit
}

var batchPool = sync.Pool{New: func() any {
	return &recordBatch{rows: make([]trace.Visit, 0, batchSize)}
}}

func getBatch() *recordBatch { return batchPool.Get().(*recordBatch) }

// putBatch recycles b. The rows are zeroed first so a pooled batch does
// not pin the last window's name strings.
func putBatch(b *recordBatch) {
	clear(b.rows)
	b.rows = b.rows[:0]
	batchPool.Put(b)
}

// alertsPool recycles the per-epoch alert buffers that travel from the
// shards to the merger; the merger returns each buffer after folding it
// into the epoch accumulator.
var alertsPool = sync.Pool{New: func() any { s := make([]Alert, 0, 64); return &s }}

func getAlerts() *[]Alert { return alertsPool.Get().(*[]Alert) }
func putAlerts(s *[]Alert) {
	*s = (*s)[:0]
	alertsPool.Put(s)
}
