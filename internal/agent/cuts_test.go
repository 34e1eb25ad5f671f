package agent

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"

	"transientbd/internal/trace"
	"transientbd/internal/wire"
)

// batchLog is a head that acks everything and keeps what each sequence
// number carried, failing the test if one arrives twice with different
// records.
type batchLog struct {
	t         *testing.T
	lastAcked uint64
	// onBatch, when set, runs after a batch is acked; returning false
	// cuts the connection (and every later one: the head is gone).
	onBatch func(seq uint64) bool

	mu   sync.Mutex
	got  map[uint64][]trace.Visit
	dead bool
}

func (l *batchLog) handle(_ int, conn net.Conn) {
	l.mu.Lock()
	dead := l.dead
	l.mu.Unlock()
	if dead {
		return
	}
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	readHello(l.t, r)
	w.WriteWelcome(wire.Welcome{Version: wire.Version, LastAcked: l.lastAcked})
	w.Flush()
	for {
		f, err := r.Read()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeBatch:
			l.mu.Lock()
			if prev, ok := l.got[f.Batch.Seq]; ok && !reflect.DeepEqual(prev, f.Batch.Visits) {
				l.t.Errorf("sequence %d re-sent with different records", f.Batch.Seq)
			}
			if l.got == nil {
				l.got = make(map[uint64][]trace.Visit)
			}
			l.got[f.Batch.Seq] = append([]trace.Visit(nil), f.Batch.Visits...)
			l.mu.Unlock()
			w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			w.Flush()
			if l.onBatch != nil && !l.onBatch(f.Batch.Seq) {
				l.mu.Lock()
				l.dead = true
				l.mu.Unlock()
				return
			}
			continue
		case wire.TypeHeartbeat:
			w.WriteAck(wire.Ack{Seq: 0})
		case wire.TypeGoodbye:
			w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// checkCuts requires sequences from..to to carry exactly the positional
// cuts of vs: batch k is records [(k-1)·size, k·size), short only at the
// end of the feed.
func (l *batchLog) checkCuts(how string, vs []trace.Visit, size int, from, to uint64) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.got) != int(to-from+1) {
		l.t.Errorf("%s: head holds %d sequences, want %d..%d", how, len(l.got), from, to)
	}
	for seq := from; seq <= to; seq++ {
		lo := int(seq-1) * size
		want := vs[lo:min(lo+size, len(vs))]
		if !reflect.DeepEqual(l.got[seq], want) {
			l.t.Errorf("%s: sequence %d carries %d records, want records %d..%d of the feed", how, seq, len(l.got[seq]), lo, lo+len(want)-1)
		}
	}
}

// sourceFragmenters are the ways a source's reads may fall.
func sourceFragmenters() []struct {
	name string
	wrap func(io.Reader) io.Reader
} {
	rng := rand.New(rand.NewSource(5))
	return []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data with EOF", iotest.DataErrReader},
		{"random", func(r io.Reader) io.Reader {
			return readerFunc(func(p []byte) (int, error) { return r.Read(p[:min(len(p), 1+rng.Intn(700))]) })
		}},
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestAgentCutsIgnoreSourceFragmentation: the decoder hands records over
// in pieces that follow the source's reads; sequence k must carry the
// same BatchSize records all the same, and only the last batch, at EOF,
// may be short.
func TestAgentCutsIgnoreSourceFragmentation(t *testing.T) {
	vs, feed := testFeed(t, 95) // 9 batches of 10 and one of 5
	for _, f := range sourceFragmenters() {
		head := &batchLog{t: t}
		srv := newScriptedServer(t, head.handle)
		m, err := Run(context.Background(), f.wrap(bytes.NewReader(feed)), testCfg(srv.addr()))
		srv.close()
		if err != nil {
			t.Fatalf("%s: Run: %v", f.name, err)
		}
		head.checkCuts(f.name, vs, 10, 1, 10)
		if m.RecordsRead != int64(len(vs)) || m.BatchesAcked != 10 {
			t.Errorf("%s: read %d records, %d batches acked; want %d and 10", f.name, m.RecordsRead, m.BatchesAcked, len(vs))
		}
	}
}

// TestAgentCutsSurviveRestartMidCut: run 1's source stalls with 37
// records out — three whole cuts and seven records of the fourth — and
// the agent is killed there; nothing short may have been sent. Run 2
// re-reads the whole source from the same WAL directory, fragmented
// differently, and the head must end up with every sequence carrying its
// positional cut.
func TestAgentCutsSurviveRestartMidCut(t *testing.T) {
	vs, feed := testFeed(t, 95)
	lines := bytes.SplitAfter(feed, []byte("\n"))
	stallAt := len(bytes.Join(lines[:37], nil))

	for _, f := range sourceFragmenters() {
		walDir := t.TempDir()
		third := make(chan struct{})
		head1 := &batchLog{t: t, onBatch: func(seq uint64) bool {
			if seq == 3 {
				close(third)
			}
			return seq < 3
		}}
		srv1 := newScriptedServer(t, head1.handle)
		cfg := testCfg(srv1.addr())
		cfg.WALDir = walDir
		cfg.WALNoSync = true

		pr, pw := io.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, err := Run(ctx, pr, cfg)
			errCh <- err
		}()
		if _, err := pw.Write(feed[:stallAt]); err != nil {
			t.Fatal(err)
		}
		<-third  // batches 1..3 are cut, durable and acked; the source is silent
		cancel() // kill -9
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: run 1 ended with %v, want context.Canceled", f.name, err)
		}
		pw.Close() // lets run 1's source reader return
		srv1.close()
		head1.checkCuts(f.name+" run 1", vs, 10, 1, 3)

		head2 := &batchLog{t: t, lastAcked: 3}
		srv2 := newScriptedServer(t, head2.handle)
		cfg.Addr = srv2.addr()
		_, err := Run(context.Background(), f.wrap(bytes.NewReader(feed)), cfg)
		srv2.close()
		if err != nil {
			t.Fatalf("%s: run 2: %v", f.name, err)
		}
		head2.checkCuts(f.name+" run 2", vs, 10, 4, 10)
	}
}
