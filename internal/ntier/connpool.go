package ntier

import (
	"transientbd/internal/simnet"
)

// connPool hands out TCP connection identities per (from, to) host pair,
// emulating the connection pooling of a synchronous RPC stack: a
// connection carries at most one outstanding call, is returned to the
// pool when the response arrives, and new connections are opened only
// when the pool is empty. The identities appear on wire messages and are
// what lets a black-box tracer (SysViz, trace.Reconstruct) demultiplex
// concurrent same-class calls.
//
// A (from, to) pair may be capped (scenario: DB-tier pool exhaustion).
// Capped pairs stop opening connections at the cap; further acquires
// queue FIFO behind releases. Uncapped pairs keep the original
// synchronous fast path, so configurations without caps behave
// bit-identically to the historical pool.
type connPool struct {
	engine *simnet.Engine

	free    map[[2]string][]int64
	opened  map[[2]string]int
	caps    map[[2]string]int
	waiters map[[2]string][]func(conn int64)
	next    int64

	// Wait-window accounting per destination host, used for ground truth:
	// a window opens when the first waiter queues for a destination and
	// closes when the last waiter is served.
	waiting     map[string]int
	waitOpen    map[string]simnet.Time
	waitWindows map[string][]TruthWindow
}

func newConnPool(engine *simnet.Engine) *connPool {
	return &connPool{
		engine:      engine,
		free:        make(map[[2]string][]int64),
		opened:      make(map[[2]string]int),
		caps:        make(map[[2]string]int),
		waiters:     make(map[[2]string][]func(conn int64)),
		waiting:     make(map[string]int),
		waitOpen:    make(map[string]simnet.Time),
		waitWindows: make(map[string][]TruthWindow),
	}
}

// setCap bounds the (from, to) pair at cap connections.
func (p *connPool) setCap(from, to string, cap int) {
	p.caps[[2]string{from, to}] = cap
}

// acquire requests a connection for the (from, to) pair. The callback
// receives the connection when one is available — synchronously for
// uncapped pairs or capped pairs below their bound, otherwise at the
// release that frees one.
func (p *connPool) acquire(from, to string, cb func(conn int64)) {
	key := [2]string{from, to}
	if q := p.free[key]; len(q) > 0 {
		conn := q[len(q)-1]
		p.free[key] = q[:len(q)-1]
		cb(conn)
		return
	}
	cap := p.caps[key]
	if cap <= 0 || p.opened[key] < cap {
		p.opened[key]++
		p.next++
		cb(p.next)
		return
	}
	// Pool exhausted: queue behind the next release.
	p.waiters[key] = append(p.waiters[key], cb)
	p.waitArrived(to)
}

// release returns a connection to its pool, handing it straight to the
// longest-waiting queued acquire if one exists.
func (p *connPool) release(from, to string, conn int64) {
	key := [2]string{from, to}
	if q := p.waiters[key]; len(q) > 0 {
		p.waiters[key] = q[1:]
		p.waitLeft(to)
		q[0](conn)
		return
	}
	p.free[key] = append(p.free[key], conn)
}

func (p *connPool) waitArrived(to string) {
	if p.waiting[to] == 0 {
		p.waitOpen[to] = p.engine.Now()
	}
	p.waiting[to]++
}

func (p *connPool) waitLeft(to string) {
	p.waiting[to]--
	if p.waiting[to] == 0 {
		p.waitWindows[to] = append(p.waitWindows[to], TruthWindow{
			Start: p.waitOpen[to],
			End:   p.engine.Now(),
		})
	}
}

// waitWindowsFor returns the coalesced periods during which at least one
// acquire was queued for the destination host, closing any still-open
// window at now.
func (p *connPool) waitWindowsFor(to string, now simnet.Time) []TruthWindow {
	ws := p.waitWindows[to]
	if p.waiting[to] > 0 {
		ws = append(append([]TruthWindow(nil), ws...), TruthWindow{Start: p.waitOpen[to], End: now})
	}
	// The raw signal flickers between a release and the next queued
	// arrival; merge sub-second gaps and drop blips.
	return coalesceWindows(ws, simnet.Second, 100*simnet.Millisecond)
}
