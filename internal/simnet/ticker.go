package simnet

import "errors"

// Ticker invokes a callback at a fixed virtual period until stopped —
// the pattern shared by the monitoring sampler and the frequency
// governor. Centralizing it keeps the stop semantics (no callback after
// Stop, even if one was already scheduled) in one tested place.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	handle  EventHandle
	stopped bool
}

// NewTicker schedules fn every period, first firing one period from now.
// Start is implicit.
func NewTicker(engine *Engine, period Duration, fn func()) (*Ticker, error) {
	if engine == nil {
		return nil, errors.New("simnet: nil engine")
	}
	if period <= 0 {
		return nil, errors.New("simnet: ticker period must be positive")
	}
	if fn == nil {
		return nil, errors.New("simnet: nil ticker callback")
	}
	t := &Ticker{engine: engine, period: period, fn: fn}
	t.arm()
	return t, nil
}

func (t *Ticker) arm() {
	t.handle = t.engine.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future ticks. Safe to call multiple times and from within
// the callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.handle)
}
