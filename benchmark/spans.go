package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's public
// functions. Name is "<layer>.<operation>"; Parent is the ID of the span
// that caused it (-1 for a root). Times are nanoseconds from the tracer's
// start.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same replay code runs untraced for the overhead
// comparison.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its ID (-1 when tracing
// is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// duration is the length of an ended span.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// count is how many spans have been opened; since returns a copy of
// those opened from index first on.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(first int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[first:]...)
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's duration minus the part of that interval
// its child spans cover. Overlapping children (concurrent callees) are
// counted once: the covered part is the union of the child intervals,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.EndNS < s.StartNS {
			continue // never ended: no duration to attribute
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < upTo {
				lo = upTo
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans for which keep
// returns true.
func layerSelf(spans []span, keep func(*span) bool) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i := range spans {
		if keep == nil || keep(&spans[i]) {
			out[layerOf(spans[i].Name)] += self[i]
		}
	}
	return out
}

// spanFile is what a traced run leaves in benchmark/out/.
type spanFile struct {
	Env         envInfo          `json:"env"`
	Workload    string           `json:"workload"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	Spans       []span           `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
