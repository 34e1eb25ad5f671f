// Package jvm models a Java virtual machine heap and its garbage
// collector, the system-software-layer cause of transient bottlenecks in
// the paper's first case study (§IV-A/B).
//
// Two collectors are modeled after the paper's JDK versions:
//
//   - CollectorSerial ("JDK 1.5"): a synchronous, stop-the-world collector.
//     The whole server freezes for the collection: requests keep arriving
//     (load rises) but nothing completes (throughput drops to zero) — the
//     POI signature of Fig 9(b).
//   - CollectorConcurrent ("JDK 1.6"): a mostly-concurrent collector with
//     two brief stop-the-world phases (initial mark, remark) and background
//     collection work that competes with application threads for CPU.
//
// The heap fills as the server allocates per-request memory; crossing the
// occupancy threshold triggers a collection. Every GC's start and end
// timestamps are logged, mirroring the JVM's GC logging function the paper
// uses to compute the "GC running ratio" of Fig 10(a).
package jvm

import (
	"errors"
	"fmt"

	"transientbd/internal/cpu"
	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
)

// CollectorKind selects the garbage collection algorithm.
type CollectorKind int

// Collector kinds. Serial reproduces JDK 1.5's default stop-the-world
// collector; Concurrent reproduces JDK 1.6's parallel/concurrent default.
const (
	CollectorSerial CollectorKind = iota + 1
	CollectorConcurrent
)

// String names the collector kind after the JDK version it models.
func (k CollectorKind) String() string {
	switch k {
	case CollectorSerial:
		return "serial (JDK 1.5)"
	case CollectorConcurrent:
		return "concurrent (JDK 1.6)"
	default:
		return fmt.Sprintf("CollectorKind(%d)", int(k))
	}
}

// MB is a convenience constant for configuring heap sizes in bytes.
const MB int64 = 1 << 20

// Config configures a Heap.
type Config struct {
	// Kind selects the collector. Required.
	Kind CollectorKind
	// HeapBytes is the total heap size. Defaults to 512 MB.
	HeapBytes int64
}

// The collectors' parameters. A serial pause lasts a few hundred ms on
// typical heaps, long enough to span several 50 ms analysis intervals, as
// in Fig 9/10.
const (
	triggerFraction     = 0.9                      // heap occupancy that starts a collection
	liveFraction        = 0.25                     // occupancy a collection leaves (the live set)
	serialPausePerGB    = 600 * simnet.Millisecond // stop-the-world, per GB collected
	concurrentPause     = 4 * simnet.Millisecond   // each of the two brief stop-the-world phases
	concurrentWorkPerGB = 150 * simnet.Millisecond // background CPU work, per GB collected
)

// Event is one logged collection, with its stop-the-world span(s).
type Event struct {
	// Start and End bound the whole collection cycle.
	Start, End simnet.Time
	// Pauses lists the stop-the-world spans within the cycle. For the
	// serial collector this is the whole cycle; for the concurrent
	// collector, the two brief mark phases.
	Pauses [][2]simnet.Time
	// CollectedBytes is how much garbage the cycle reclaimed.
	CollectedBytes int64
}

// Heap is an allocation-driven garbage-collected heap attached to a
// processor. Alloc is called by the server as requests are processed;
// collections pause or compete with that processor.
type Heap struct {
	engine *simnet.Engine
	proc   *cpu.Processor
	cfg    Config

	used    int64
	inGC    bool
	pending int64 // allocations arriving during a concurrent cycle
	log     []Event
}

// NewHeap creates a heap bound to the engine and processor.
func NewHeap(engine *simnet.Engine, proc *cpu.Processor, cfg Config) (*Heap, error) {
	if engine == nil {
		return nil, errors.New("jvm: nil engine")
	}
	if proc == nil {
		return nil, errors.New("jvm: nil processor")
	}
	if cfg.Kind != CollectorSerial && cfg.Kind != CollectorConcurrent {
		return nil, fmt.Errorf("jvm: unknown collector kind %d", int(cfg.Kind))
	}
	if cfg.HeapBytes <= 0 {
		cfg.HeapBytes = 512 * MB
	}
	return &Heap{engine: engine, proc: proc, cfg: cfg}, nil
}

// Used returns current heap occupancy in bytes.
func (h *Heap) Used() int64 { return h.used }

// InGC reports whether a collection cycle is in progress.
func (h *Heap) InGC() bool { return h.inGC }

// Collections returns the number of completed collections.
func (h *Heap) Collections() int { return len(h.log) }

// Log returns a copy of the GC event log.
func (h *Heap) Log() []Event {
	out := make([]Event, len(h.log))
	copy(out, h.log)
	return out
}

// Alloc records bytes of allocation and triggers a collection when the
// occupancy threshold is crossed.
func (h *Heap) Alloc(bytes int64) {
	if bytes <= 0 {
		return
	}
	if h.inGC {
		// The serial collector cannot really observe allocations (the app
		// is frozen), but the concurrent one can; buffering for both keeps
		// the accounting conservative.
		h.pending += bytes
		return
	}
	h.used += bytes
	if h.used > h.cfg.HeapBytes {
		h.used = h.cfg.HeapBytes
	}
	if float64(h.used) >= triggerFraction*float64(h.cfg.HeapBytes) {
		h.collect()
	}
}

func (h *Heap) collect() {
	h.inGC = true
	start := h.engine.Now()
	live := int64(liveFraction * float64(h.cfg.HeapBytes))
	collected := h.used - live
	if collected < 0 {
		collected = 0
	}
	gb := float64(collected) / float64(1024*MB)

	switch h.cfg.Kind {
	case CollectorSerial:
		pause := simnet.Duration(gb * float64(serialPausePerGB))
		if pause < simnet.Millisecond {
			pause = simnet.Millisecond
		}
		h.proc.Pause()
		h.engine.Schedule(pause, func() {
			h.proc.Resume()
			end := h.engine.Now()
			h.finish(Event{
				Start:          start,
				End:            end,
				Pauses:         [][2]simnet.Time{{start, end}},
				CollectedBytes: collected,
			}, live)
		})
	case CollectorConcurrent:
		// Initial mark (STW) → concurrent work on the CPU → remark (STW).
		ev := Event{Start: start, CollectedBytes: collected}
		h.proc.Pause()
		h.engine.Schedule(concurrentPause, func() {
			h.proc.Resume()
			markEnd := h.engine.Now()
			ev.Pauses = append(ev.Pauses, [2]simnet.Time{start, markEnd})
			work := simnet.Duration(gb * float64(concurrentWorkPerGB))
			h.proc.Submit(work, func() {
				remarkStart := h.engine.Now()
				h.proc.Pause()
				h.engine.Schedule(concurrentPause, func() {
					h.proc.Resume()
					end := h.engine.Now()
					ev.Pauses = append(ev.Pauses, [2]simnet.Time{remarkStart, end})
					ev.End = end
					h.finish(ev, live)
				})
			})
		})
	}
}

func (h *Heap) finish(ev Event, live int64) {
	h.log = append(h.log, ev)
	h.inGC = false
	h.used = live + h.pending
	h.pending = 0
	if float64(h.used) >= triggerFraction*float64(h.cfg.HeapBytes) {
		// Back-to-back collection: allocation pressure outran the cycle.
		h.collect()
	}
}

// RunningRatio returns, per interval, the fraction of wall time spent in
// stop-the-world GC pauses — the paper's "Java GC running ratio"
// (footnote 5, Fig 10a).
func (h *Heap) RunningRatio(start, end simnet.Time, width simnet.Duration) (*metrics.IntervalSeries, error) {
	acc := metrics.NewStepAccumulator(0)
	for _, ev := range h.log {
		for _, p := range ev.Pauses {
			acc.Change(p[0], 1)
			acc.Change(p[1], -1)
		}
	}
	s, err := acc.Average(start, end, width)
	if err != nil {
		return nil, fmt.Errorf("jvm: running ratio: %w", err)
	}
	return s, nil
}

// TotalPause returns the cumulative stop-the-world time across all logged
// collections.
func (h *Heap) TotalPause() simnet.Duration {
	var total simnet.Duration
	for _, ev := range h.log {
		for _, p := range ev.Pauses {
			total += p[1] - p[0]
		}
	}
	return total
}
