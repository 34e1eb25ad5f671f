package agent

import (
	"bytes"
	"context"
	"net"
	"testing"

	"transientbd/internal/wire"
)

// BenchmarkAgentSpill times a WAL-backed agent from Run to the head's
// Goodbye echo with a send window of one batch, so every batch after the
// first takes the disk path: appended, read back from the log, then
// sent. The head is an in-process loopback listener that acks every
// frame and keeps nothing.
func BenchmarkAgentSpill(b *testing.B) {
	vs, feed := testFeed(b, 20_000)
	srv := newScriptedServer(b, func(_ int, conn net.Conn) {
		r, w := wire.NewReader(conn), wire.NewWriter(conn)
		readHello(b, r)
		w.WriteWelcome(wire.Welcome{Version: wire.Version})
		w.Flush()
		for {
			f, err := r.Read()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeBatch:
				w.WriteAck(wire.Ack{Seq: f.Batch.Seq})
			case wire.TypeHeartbeat:
				w.WriteAck(wire.Ack{Seq: 0})
			case wire.TypeGoodbye:
				w.WriteGoodbye(wire.Goodbye{FinalSeq: f.Goodbye.FinalSeq, Reason: "ack"})
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	})
	defer srv.close()
	cfg := testCfg(srv.addr())
	cfg.BatchSize = 512
	cfg.Window = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.WALDir = b.TempDir()
		m, err := Run(context.Background(), bytes.NewReader(feed), cfg)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		if m.RecordsSent != int64(len(vs)) {
			b.Fatalf("sent %d records, want %d", m.RecordsSent, len(vs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/record")
}
