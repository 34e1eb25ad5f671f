package main

import (
	"io"
	"sort"
	"time"
)

// feed is one JSONL input held in memory: line i is
// data[ends[i-1]:ends[i]] and departs at depart[i] µs of trace time.
// Feeds are depart-ordered (ntiersim -order depart), which the sealing
// rule relies on.
type feed struct {
	data   []byte
	ends   []int
	depart []int64
}

func (f *feed) lines() int { return len(f.ends) }

func (f *feed) start(i int) int {
	if i == 0 {
		return 0
	}
	return f.ends[i-1]
}

// head returns the feed's first n lines (all of it when it has fewer).
func (f *feed) head(n int) *feed {
	if n >= f.lines() {
		return f
	}
	return &feed{data: f.data[:f.start(n)], ends: f.ends[:n], depart: f.depart[:n]}
}

// prefix returns the feed cut after the last line departing within span
// µs of the first.
func (f *feed) prefix(spanUS int64) *feed {
	if f.lines() == 0 {
		return f
	}
	limit := f.depart[0] + spanUS
	return f.head(sort.Search(f.lines(), func(i int) bool { return f.depart[i] > limit }))
}

// feedLog is what the generator did: when each line became available to
// the program, and when the input ended.
type feedLog struct {
	// Closed loop: chunkEnd[k] is the index just past the last line of
	// write k and chunkAt[k] the moment that write returned, which is
	// when its lines count as handed over.
	chunkEnd []int
	chunkAt  []time.Time
	// Open loop: a written line (index < written) counts as handed over
	// when it was due, and lagMS holds per write how late it completed
	// against the due time of its last line — the generator's own
	// lateness.
	due     func(i int) time.Time
	written int
	lagMS   []float64

	closed time.Time
	err    error
}

// availableAt is when line i was handed to the program; past the last
// line written, that is the end of input.
func (l *feedLog) availableAt(i int) time.Time {
	if l.due != nil {
		if i < l.written {
			return l.due(i)
		}
		return l.closed
	}
	k := sort.SearchInts(l.chunkEnd, i+1)
	if k >= len(l.chunkAt) {
		return l.closed
	}
	return l.chunkAt[k]
}

// maxChunk bounds one closed-loop write. A line counts as handed over
// when its write returns, so the chunk is kept small against the ~1 MB
// the reader batches before it acts: the error is well under a
// millisecond.
const maxChunk = 16 << 10

// writeClosedLoop writes the feed as fast as the reader drains it (the
// pipe is the backpressure) and closes w.
func writeClosedLoop(w io.WriteCloser, f *feed) *feedLog {
	log := &feedLog{}
	for i := 0; i < f.lines(); {
		j := i + 1
		for j < f.lines() && f.ends[j]-f.start(i) <= maxChunk {
			j++
		}
		if _, err := w.Write(f.data[f.start(i):f.ends[j-1]]); err != nil {
			log.err = err
			break
		}
		log.chunkEnd = append(log.chunkEnd, j)
		log.chunkAt = append(log.chunkAt, time.Now())
		i = j
	}
	if err := w.Close(); err != nil && log.err == nil {
		log.err = err
	}
	log.closed = time.Now()
	return log
}

// pacedTick is the shortest sleep of the paced generator: lines falling
// due within one tick go out in one write, which keeps the generator's
// own CPU (it shares two cores with the program) near zero.
const pacedTick = time.Millisecond

// writePaced is the open-loop generator: line i is due
// (depart[i]-depart[0])/speed after begin, whatever the reader does. A
// line counts as handed over at its due time, not at its write, so a
// stall anywhere shows as latency; how late the writes ran is kept in
// lagMS.
func writePaced(w io.WriteCloser, f *feed, speed float64, begin time.Time) *feedLog {
	due := func(i int) time.Time {
		return begin.Add(time.Duration(float64(f.depart[i]-f.depart[0]) * 1e3 / speed))
	}
	log := &feedLog{due: due}
	for i := 0; i < f.lines(); {
		if d := time.Until(due(i)); d > 0 {
			if d < pacedTick {
				d = pacedTick
			}
			time.Sleep(d)
		}
		now := time.Now()
		j := i + 1
		for j < f.lines() && !due(j).After(now) {
			j++
		}
		if _, err := w.Write(f.data[f.start(i):f.ends[j-1]]); err != nil {
			log.err = err
			break
		}
		log.written = j
		log.lagMS = append(log.lagMS, float64(time.Since(due(j-1)))/1e6)
		i = j
	}
	if err := w.Close(); err != nil && log.err == nil {
		log.err = err
	}
	log.closed = time.Now()
	return log
}

// sealingIndex is the sealing-record rule: an interval starting at atUS
// can be sealed once the feed has shown a departure at or past
// atUS+thresholdUS, the interval's length plus the flush lag (the
// runtime's watermark rule), so the record that seals it is the first
// with such a departure. Returns f.lines() when no record does — the
// interval is sealed by end of input.
func sealingIndex(f *feed, atUS, thresholdUS int64) int {
	return sort.Search(f.lines(), func(i int) bool { return f.depart[i] >= atUS+thresholdUS })
}
