package chaos

import (
	"net"
	"testing"
	"time"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/wire"
)

// echoAckServer accepts wire frames and acks each batch — just enough
// upstream to test the proxy itself.
func echoAckServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := wire.NewReader(conn), wire.NewWriter(conn)
				for {
					f, err := r.Read()
					if err != nil {
						return
					}
					if f.Type == wire.TypeBatch {
						w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
						w.Flush()
					}
				}
			}()
		}
	}()
	return lis.Addr().String(), func() { lis.Close(); <-done }
}

func TestProxyPartitionAndHeal(t *testing.T) {
	up, stop := echoAckServer(t)
	defer stop()
	p, err := NewProxy("127.0.0.1:0", up)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	w, r := wire.NewWriter(conn), wire.NewReader(conn)

	send := func(seq uint64) {
		t.Helper()
		if err := w.WriteBatch(wire.Batch{Seq: seq}); err != nil {
			t.Fatalf("write batch %d: %v", seq, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush batch %d: %v", seq, err)
		}
	}
	readAck := func(want uint64, timeout time.Duration) error {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(timeout))
		f, err := r.Read()
		if err != nil {
			return err
		}
		if f.Type != wire.TypeAck || f.Ack.Seq != want {
			t.Fatalf("got frame type %d seq %d, want ack %d", f.Type, f.Ack.Seq, want)
		}
		return nil
	}

	// Healthy path: batch flows, ack comes back.
	send(1)
	if err := readAck(1, 2*time.Second); err != nil {
		t.Fatalf("ack 1: %v", err)
	}

	// Partition: bytes are held, the connection stays open — the ack
	// must NOT arrive (a timeout, not a connection error).
	p.Partition()
	send(2)
	if err := readAck(2, 300*time.Millisecond); err == nil {
		t.Fatalf("ack crossed a partition")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("partition surfaced as %v, want read timeout (silence, not a close)", err)
	}

	// Heal: the held bytes resume on the same connection.
	p.Heal()
	if err := readAck(2, 5*time.Second); err != nil {
		t.Fatalf("ack after heal: %v", err)
	}
	if got := p.Frames(); got < 2 {
		t.Errorf("Frames() = %d, want >= 2", got)
	}
}

func TestProxyDropCounter(t *testing.T) {
	up, stop := echoAckServer(t)
	defer stop()
	p, err := NewProxy("127.0.0.1:0", up)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	p.DropEvery = 2 // drop every even frame
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	for seq := uint64(1); seq <= 7; seq++ {
		if err := w.WriteBatch(wire.Batch{Seq: seq}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	// Odd frames pass (1, 3, 5, 7), even are dropped. The proxy handles a
	// connection's frames in order, so once frame 7's ack is back frame 6
	// has been counted.
	for _, want := range []uint64{1, 3, 5, 7} {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, err := r.Read()
		if err != nil {
			t.Fatalf("read ack %d: %v", want, err)
		}
		if f.Type != wire.TypeAck || f.Ack.Seq != want {
			t.Fatalf("got type %d seq %d, want ack %d", f.Type, f.Ack.Seq, want)
		}
	}
	if got := p.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
}

// TestProxyForwardsLargeFrame regression-pins frame reassembly against
// production-sized batches: a full 512-visit batch is ~18KiB on the
// wire, far past the proxy's initial buffer, and must forward intact
// (the original fixed-capacity reslice panicked here).
func TestProxyForwardsLargeFrame(t *testing.T) {
	up, stop := echoAckServer(t)
	defer stop()
	p, err := NewProxy("127.0.0.1:0", up)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	w, r := wire.NewWriter(conn), wire.NewReader(conn)

	visits := make([]trace.Visit, 512)
	for i := range visits {
		visits[i] = trace.Visit{
			Server: "server-with-a-longish-name",
			Class:  "class-0",
			Arrive: simnet.Time(i) * 1000,
			Depart: simnet.Time(i)*1000 + 500,
		}
	}
	if err := w.WriteBatch(wire.Batch{Seq: 1, Visits: visits}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := r.Read()
	if err != nil {
		t.Fatalf("read ack: %v", err)
	}
	if f.Type != wire.TypeAck || f.Ack.Seq != 1 {
		t.Fatalf("got type %d seq %d, want ack 1", f.Type, f.Ack.Seq)
	}
}
