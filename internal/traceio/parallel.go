package traceio

import (
	"bufio"
	"bytes"
	"cmp"
	"io"
	"runtime"
	"sync"

	"transientbd/internal/trace"
)

// blockBytes is the read buffer StreamVisitsParallel cuts its blocks
// from: a few hundred lines a block, so a block's trip between goroutines
// costs little per record.
const blockBytes = 64 << 10

// block is a run of whole lines on its way through StreamVisitsParallel.
type block struct {
	line    int    // the number of its first line
	data    []byte // its lines, each ending in '\n' but perhaps the input's last
	visits  []trace.Visit
	stats   Stats
	err     error         // what ends the read here: the source's error after data, or under Strict its first bad line
	decoded chan struct{} // signalled once visits, stats and err are final
}

// StreamVisitsParallel reads JSONL visits until EOF like StreamVisitsOpts,
// for a whole input with no one-read hand-off to keep: one goroutine cuts
// r into blocks of at most opts.BatchSize lines, workers goroutines (<= 0
// uses GOMAXPROCS) decode them line by line as StreamVisitsOpts does, and
// fn gets each block's visits on the caller's goroutine, in input order,
// in a slice it must not retain. At most 2 × workers blocks are in flight.
//
// The Stats and errors are StreamVisitsOpts': the same counts and first
// line errors, under Strict the error for the first bad line in input
// order, and fn's error verbatim. A failed read has handed over a prefix
// of the records before the failure; it returns once the cutting
// goroutine has finished its read of r, and leaves no goroutine behind.
func StreamVisitsParallel(r io.Reader, opts StreamOptions, workers int, fn func(batch []trace.Visit) error) (Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Two blocks a worker, so each has its next one queued while the caller
	// takes the last; work and order hold every block at once, so no send
	// to them blocks.
	free := make(chan *block, 2*workers)
	for range cap(free) {
		free <- &block{decoded: make(chan struct{}, 1)}
	}
	work, order, stop := make(chan *block, cap(free)), make(chan *block, cap(free)), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go cutBlocks(&wg, r, cmp.Or(max(opts.BatchSize, 0), DefaultBatch), free, stop, work, order)
	for range workers {
		go decodeBlocks(&wg, work, opts.Policy)
	}
	var stats Stats
	var err error
	for b := range order {
		if <-b.decoded; err != nil {
			continue // drained, so that the reader and the workers end
		}
		stats.add(b.stats)
		if err = b.err; err == nil && len(b.visits) > 0 {
			err = fn(b.visits)
		}
		if err != nil {
			close(stop)
		} else {
			free <- b
		}
	}
	wg.Wait()
	stats.Decoded = stats.Lines - stats.Skipped()
	return stats, err
}

// cutBlocks cuts r into blocks, sent to work and order, until the input
// ends or stop is closed. A block starts with one line as lineReader reads
// it, refilling bufio or keeping the head of an overlong line, and takes
// the whole lines bufio then holds in one copy, up to batchSize lines.
func cutBlocks(wg *sync.WaitGroup, r io.Reader, batchSize int, free <-chan *block, stop <-chan struct{}, work, order chan<- *block) {
	defer wg.Done()
	defer close(order)
	defer close(work)
	lr := lineReader{br: bufio.NewReaderSize(r, blockBytes)}
	for line := 1; ; line++ {
		var b *block
		select {
		case b = <-free:
		case <-stop:
			return
		}
		data, rerr := lr.next()
		b.line, b.data, b.err = line, append(b.data[:0], data...), nil
		if rerr != nil {
			b.err = readEnd(line, rerr)
		} else {
			if data[len(data)-1] != '\n' { // the head lineReader keeps of an overlong line
				b.data = append(b.data, '\n')
			}
			more, _ := lr.br.Peek(lr.br.Buffered())
			more = more[:bytes.LastIndexByte(more, '\n')+1]
			n := bytes.Count(more, []byte{'\n'})
			for ; n >= batchSize; n-- {
				more = more[:bytes.LastIndexByte(more[:len(more)-1], '\n')+1]
			}
			b.data = append(b.data, more...)
			lr.br.Discard(len(more))
			line += n
		}
		work <- b
		order <- b
		if rerr != nil {
			return
		}
	}
}

// decodeBlocks decodes the blocks from work with decodeVisit, under a name
// table of its own, until work is closed.
func decodeBlocks(wg *sync.WaitGroup, work <-chan *block, policy Policy) {
	defer wg.Done()
	names := make(trace.Names)
	var b *block
	decode := func(data []byte) (bool, error) {
		v, malformed, err := decodeVisit(data, names)
		if err == nil {
			b.visits = append(b.visits, v)
		}
		return malformed, err
	}
	for b = range work {
		b.visits, b.stats = b.visits[:0], Stats{Errors: b.stats.Errors[:0]}
		for line, rest := b.line, b.data; len(rest) > 0; line++ {
			n := bytes.IndexByte(rest, '\n') + 1
			if n == 0 {
				n = len(rest)
			}
			if err := b.stats.take(line, rest[:n], policy, decode); err != nil {
				b.err = err
				break
			}
			rest = rest[n:]
		}
		b.decoded <- struct{}{}
	}
}

// add folds the Stats of the lines after s's into s.
func (s *Stats) add(o Stats) {
	s.Lines, s.Malformed, s.Invalid = s.Lines+o.Lines, s.Malformed+o.Malformed, s.Invalid+o.Invalid
	s.Errors = append(s.Errors, o.Errors[:min(len(o.Errors), maxKeptErrors-len(s.Errors))]...)
}
