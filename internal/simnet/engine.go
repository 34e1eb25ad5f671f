package simnet

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback. Events with equal timestamps fire in
// scheduling order (seq) so that runs are bit-for-bit reproducible.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index; -1 once popped or canceled
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// EventHandle identifies a scheduled event so it can be canceled.
// The zero value is not a valid handle.
type EventHandle struct {
	ev *event
}

// Valid reports whether the handle refers to a scheduled (not yet fired or
// canceled) event.
func (h EventHandle) Valid() bool {
	return h.ev != nil && h.ev.index >= 0
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; the whole simulation runs on one goroutine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	running bool
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time {
	return e.now
}

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int {
	return len(e.events)
}

// Schedule runs fn after delay. A negative delay is treated as zero (the
// event fires at the current time, after already-queued events for that
// time). It returns a handle that can cancel the event.
func (e *Engine) Schedule(delay Duration, fn func()) EventHandle {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current time.
func (e *Engine) At(t Time, fn func()) EventHandle {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return EventHandle{ev: ev}
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether an event was
// actually removed.
func (e *Engine) Cancel(h EventHandle) bool {
	if !h.Valid() {
		return false
	}
	heap.Remove(&e.events, h.ev.index)
	h.ev.index = -1
	h.ev.fn = nil
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	popped := heap.Pop(&e.events)
	ev, ok := popped.(*event)
	if !ok {
		return false
	}
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	if fn != nil {
		fn()
	}
	return true
}

// Run executes events until the clock would pass horizon, then sets the
// clock to exactly horizon and returns. Events scheduled at the horizon
// itself still fire. Run returns an error if called re-entrantly from
// within an event.
func (e *Engine) Run(horizon Time) error {
	if e.running {
		return fmt.Errorf("simnet: re-entrant Run at %v", e.now)
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// RunAll executes events until none remain.
func (e *Engine) RunAll() error {
	if e.running {
		return fmt.Errorf("simnet: re-entrant RunAll at %v", e.now)
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		e.Step()
	}
	return nil
}
