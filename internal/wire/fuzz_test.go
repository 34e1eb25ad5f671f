package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"transientbd/internal/trace"
)

// frameOf seals a frame body (type byte + payload) into wire bytes.
func frameOf(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// forgedBatchFrame is a full-size Batch frame whose count claims one
// visit per payload byte: 1 048 552 of them, ≈ 75 MB of trace.Visit,
// behind 1 MiB of zeros that really hold 149 795.
func forgedBatchFrame() []byte {
	body := []byte{TypeBatch}
	body = binary.AppendUvarint(body, 1)         // seq
	body = binary.AppendUvarint(body, 1_048_552) // count
	return frameOf(append(body, make([]byte, MaxFrameSize-len(body))...))
}

// A forged batch count is rejected before the decoder allocates for it:
// the whole Read costs about the frame buffer, not the claimed visits.
func TestForgedBatchCountAllocation(t *testing.T) {
	frame := forgedBatchFrame()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(frame)).Read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged 1 MiB batch decoded cleanly")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte frame (%v)", got, len(frame), err)
	}
}

// truncatedBatchFrame is a full-size Batch frame whose count fits the
// one-visit-per-minVisitBytes bound but whose body holds one minimal
// visit followed by unterminated varints, so decoding fails on the
// second visit.
func truncatedBatchFrame() []byte {
	const count = (MaxFrameSize - 5) / minVisitBytes // type, seq, 3-byte count
	body := []byte{TypeBatch}
	body = binary.AppendUvarint(body, 1) // seq
	body = binary.AppendUvarint(body, count)
	body = append(body, make([]byte, minVisitBytes)...)
	return frameOf(append(body, bytes.Repeat([]byte{0x80}, MaxFrameSize-len(body))...))
}

// A count the payload could hold does not buy its full preallocation
// either: a batch that fails on its second visit costs about its frame
// buffer through Read, and next to nothing through VisitCount (the
// write-ahead log's replay check), which never builds a visit.
func TestTruncatedBatchAllocation(t *testing.T) {
	frame := truncatedBatchFrame()
	allocs := func(decode func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("truncated batch decoded cleanly")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocs(func() error {
		_, err := NewReader(bytes.NewReader(frame)).Read()
		return err
	}); got > 2<<20 {
		t.Errorf("Read allocated %d bytes for a %d-byte frame", got, len(frame))
	}
	body := frame[4+2 : len(frame)-4] // past length, type and seq; before the CRC
	if got := allocs(func() error {
		_, err := VisitCount(body)
		return err
	}); got > 4<<10 {
		t.Errorf("VisitCount allocated %d bytes for a %d-byte body", got, len(body))
	}
}

// writeAny frames f with the writer for its type.
func writeAny(w *Writer, f Frame) error {
	switch f.Type {
	case TypeHello:
		return w.WriteHello(f.Hello)
	case TypeWelcome:
		return w.WriteWelcome(f.Welcome)
	case TypeBatch:
		return w.WriteBatch(f.Batch)
	case TypeAck:
		return w.WriteAck(f.Ack)
	case TypeHeartbeat:
		return w.WriteHeartbeat(f.Heartbeat)
	case TypeGoodbye:
		return w.WriteGoodbye(f.Goodbye)
	case TypeError:
		return w.WriteError(f.Error)
	case TypeChallenge:
		return w.WriteChallenge(f.Challenge)
	default:
		return w.WriteAuth(f.Auth)
	}
}

// reseal recomputes the CRC of every whole frame in data, so mutated
// payloads reach the decoders instead of stopping at the checksum.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+4 <= len(out); {
		n := int(binary.BigEndian.Uint32(out[off:]))
		end := off + 4 + n
		if n < 1 || n > MaxFrameSize || end+4 > len(out) {
			break
		}
		binary.BigEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[off+4:end]))
		off = end + 4
	}
	return out
}

// FuzzWireRead reads frames from arbitrary bytes until the reader
// errors. No input may panic it, a decoded Batch never holds more visits
// than its frame's bytes can encode, and every accepted frame
// round-trips: decode → write → decode is DeepEqual.
func FuzzWireRead(f *testing.F) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, fr := range []Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Node: "host-a", FirstSeq: 3, Nonce: []byte("0123456789abcdef")}},
		{Type: TypeChallenge, Challenge: Challenge{Nonce: []byte("nonce"), Proof: []byte("proof")}},
		{Type: TypeAuth, Auth: Auth{MAC: []byte("mac")}},
		{Type: TypeWelcome, Welcome: Welcome{Version: Version, LastAcked: 42}},
		{Type: TypeBatch, Batch: Batch{Seq: 9, Visits: []trace.Visit{
			{Server: "web-1", Class: "small", TxnID: 7, HopID: 1, Arrive: 100, Depart: 260, Downstream: 40},
			{Server: "db-1", Class: "big", TxnID: -3, HopID: 2, Arrive: 150, Depart: 240},
			{},
		}}},
		{Type: TypeBatch, Batch: Batch{Seq: 10, Visits: []trace.Visit{}}},
		{Type: TypeAck, Ack: Ack{Seq: 9}},
		{Type: TypeHeartbeat, Heartbeat: Heartbeat{WALDepth: 41, WALSegments: 3, Spilling: true}},
		{Type: TypeGoodbye, Goodbye: Goodbye{FinalSeq: 10, Reason: "eof"}},
		{Type: TypeError, Error: ErrorFrame{Msg: "version mismatch"}},
	} {
		if err := writeAny(w, fr); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	forgedCount := []byte{TypeBatch, 1}
	forgedCount = binary.AppendUvarint(forgedCount, 1<<40)
	for _, seed := range [][]byte{
		stream.Bytes(),
		frameOf([]byte{TypeHello, 1, 0x09, 'o', 'l', 'd'}),
		frameOf(append(forgedCount, make([]byte, 9)...)),
		forgedBatchFrame(),
		truncatedBatchFrame(),
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		r := NewReader(bytes.NewReader(data))
		for off := 0; ; {
			got, err := r.Read()
			if err != nil {
				return
			}
			n := int(binary.BigEndian.Uint32(data[off:]))
			if got.Type == TypeBatch {
				// The agent's replay check must accept every body the frame
				// decoder accepts, with the same count.
				payload := data[off+5 : off+4+n]
				_, seqLen := binary.Uvarint(payload)
				if c, err := VisitCount(payload[seqLen:]); err != nil || c != len(got.Batch.Visits) {
					t.Fatalf("VisitCount = %d, %v for a body that decoded to %d visits", c, err, len(got.Batch.Visits))
				}
			}
			off += 4 + n + 4
			if len(got.Batch.Visits) > n/minVisitBytes {
				t.Fatalf("%d-byte frame decoded to %d visits", n, len(got.Batch.Visits))
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := writeAny(w, got); err != nil {
				t.Fatalf("re-encode type %d: %v", got.Type, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewReader(&buf).Read()
			if err != nil {
				t.Fatalf("re-decode type %d: %v", got.Type, err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", again, got)
			}
		}
	})
}
