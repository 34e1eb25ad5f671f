package serve

import (
	"sync"
	"sync/atomic"

	"transientbd/internal/stream"
)

// subscriber is one /alerts subscription: a bounded queue plus the
// count of alerts this subscriber lost to overflow since the SSE
// handler last reported them.
type subscriber struct {
	ch      chan stream.Alert
	dropped atomic.Int64
}

// subscriberQueue bounds each /alerts subscriber's queue, in alerts. A
// subscriber that falls behind loses the overflow from its own queue —
// counted per subscriber and surfaced both as an SSE "dropped" event and
// in /metrics — rather than slowing the detector or other subscribers.
const subscriberQueue = 256

// hub fans alerts out to subscribers. Publishing is non-blocking: a
// subscriber whose queue is full loses the alert (counted per
// subscriber and in the hub total) instead of backpressuring the
// publisher — the detector must never wait on a dashboard.
type hub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool

	// totalDropped counts alerts lost across all subscribers, ever;
	// totalPublished counts publish calls. Both feed /metrics.
	totalDropped   atomic.Int64
	totalPublished atomic.Int64
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscribe registers a new subscriber, or returns nil if the hub is
// already closed (the server is shutting down).
func (h *hub) subscribe() *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &subscriber{ch: make(chan stream.Alert, subscriberQueue)}
	h.subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes a subscriber and closes its queue. Idempotent;
// a no-op after closeAll (which already closed the channel).
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; !ok {
		return
	}
	delete(h.subs, sub)
	close(sub.ch)
}

// publish delivers one alert to every subscriber, non-blocking.
func (h *hub) publish(a stream.Alert) {
	h.totalPublished.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- a:
		default:
			sub.dropped.Add(1)
			h.totalDropped.Add(1)
		}
	}
}

// closeAll closes every subscription (handlers see the channel close
// and finish their streams) and refuses new ones.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// count returns the current subscriber count.
func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
