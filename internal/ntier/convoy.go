package ntier

import (
	"transientbd/internal/simnet"
)

// serialLock is a FIFO critical section held off-CPU for a fixed time,
// modelling a mutex guarding an I/O-bound section (log append, row lock):
// the holder does not occupy a core, but everything behind it queues.
// A periodic long hold (the "janitor") turns the queue into a convoy.
type serialLock struct {
	engine *simnet.Engine
	busy   bool
	q      []lockReq
}

type lockReq struct {
	hold     simnet.Duration
	acquired func() // optional, called when the lock is granted
	done     func() // optional, called when the hold ends
}

func newSerialLock(engine *simnet.Engine) *serialLock {
	return &serialLock{engine: engine}
}

// with runs done after holding the lock for hold, queueing FIFO behind
// the current holder.
func (l *serialLock) with(hold simnet.Duration, acquired, done func()) {
	r := lockReq{hold: hold, acquired: acquired, done: done}
	if l.busy {
		l.q = append(l.q, r)
		return
	}
	l.busy = true
	l.run(r)
}

func (l *serialLock) run(r lockReq) {
	if r.acquired != nil {
		r.acquired()
	}
	l.engine.Schedule(r.hold, func() {
		if r.done != nil {
			r.done()
		}
		if len(l.q) == 0 {
			l.busy = false
			return
		}
		next := l.q[0]
		l.q = l.q[1:]
		l.run(next)
	})
}

// queryCache is the app-tier result cache behind the cache-stampede
// scenario. Hit probability scales with how full the cache is; a
// periodic invalidation empties it, and every miss both goes downstream
// and refills one entry, so the whole miss storm lands on the DB tier
// until the cache warms back up.
type queryCache struct {
	rng    *simnet.RNG
	filled int

	// Stampede accounting for ground truth.
	stormStart  simnet.Time
	inStorm     bool
	stormWindow []TruthWindow
}

func newQueryCache(rng *simnet.RNG) *queryCache {
	return &queryCache{rng: rng, filled: cacheEntries}
}

// lookup reports whether a query hits the cache, refilling one entry on
// a miss. The warm-hit threshold at which a storm window closes is 90%
// of the warm hit rate.
func (c *queryCache) lookup(now simnet.Time) bool {
	h := cacheHitRate * float64(c.filled) / cacheEntries
	hit := c.rng.Float64() < h
	if !hit && c.filled < cacheEntries {
		c.filled++
		if c.inStorm && float64(c.filled) >= 0.9*cacheEntries {
			c.inStorm = false
			c.stormWindow = append(c.stormWindow, TruthWindow{Start: c.stormStart, End: now})
		}
	}
	return hit
}

// invalidate empties the cache, opening a storm window.
func (c *queryCache) invalidate(now simnet.Time) {
	c.filled = 0
	if !c.inStorm {
		c.inStorm = true
		c.stormStart = now
	}
}

// windows returns the recorded storm windows, closing any open storm at
// now.
func (c *queryCache) windows(now simnet.Time) []TruthWindow {
	ws := c.stormWindow
	if c.inStorm {
		ws = append(append([]TruthWindow(nil), ws...), TruthWindow{Start: c.stormStart, End: now})
	}
	return ws
}
