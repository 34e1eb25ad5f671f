package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// roundtrip writes every frame type through a buffer and decodes it
// back, asserting field-exact equality.
func TestRoundtrip(t *testing.T) {
	visits := []trace.Visit{
		{Server: "web-1", Class: "small", TxnID: 7, HopID: 1, Arrive: 100, Depart: 260, Downstream: 40},
		{Server: "db-1", Class: "big", TxnID: -3, HopID: 2, Arrive: 150, Depart: 240},
		{Server: "", Class: "", Arrive: 0, Depart: 0}, // degenerate but encodable
	}
	frames := []Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Node: "host-a", FirstSeq: 33}},
		{Type: TypeWelcome, Welcome: Welcome{Version: Version, LastAcked: 42}},
		{Type: TypeBatch, Batch: Batch{Seq: 9, Visits: visits}},
		{Type: TypeBatch, Batch: Batch{Seq: 10, Visits: []trace.Visit{}}},
		{Type: TypeAck, Ack: Ack{Seq: 9}},
		{Type: TypeHeartbeat, Heartbeat: Heartbeat{}},
		{Type: TypeGoodbye, Goodbye: Goodbye{FinalSeq: 10, Reason: "eof"}},
		{Type: TypeError, Error: ErrorFrame{Msg: "version mismatch"}},
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, f := range frames {
		var err error
		switch f.Type {
		case TypeHello:
			err = w.WriteHello(f.Hello)
		case TypeWelcome:
			err = w.WriteWelcome(f.Welcome)
		case TypeBatch:
			err = w.WriteBatch(f.Batch)
		case TypeAck:
			err = w.WriteAck(f.Ack)
		case TypeHeartbeat:
			err = w.WriteHeartbeat(f.Heartbeat)
		case TypeGoodbye:
			err = w.WriteGoodbye(f.Goodbye)
		case TypeError:
			err = w.WriteError(f.Error)
		}
		if err != nil {
			t.Fatalf("write type %d: %v", f.Type, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF at end, got %v", err)
	}
}

// A flipped payload byte must fail the CRC, and a flipped CRC byte
// likewise — corruption is never delivered as data.
func TestCRCCatchesCorruption(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteBatch(Batch{Seq: 1, Visits: []trace.Visit{{Server: "s", Arrive: 1, Depart: 2}}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode()
	for pos := 4; pos < len(base); pos++ { // every byte past the length prefix
		mangled := append([]byte(nil), base...)
		mangled[pos] ^= 0x40
		_, err := NewReader(bytes.NewReader(mangled)).Read()
		if err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", pos)
		}
	}
}

// A connection cut mid-frame is ErrUnexpectedEOF (retransmission
// territory), never a clean EOF.
func TestTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(Batch{Seq: 1, Visits: []trace.Visit{{Server: "s", Arrive: 1, Depart: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := NewReader(bytes.NewReader(whole[:cut])).Read()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// Absurd length prefixes are rejected before any allocation.
func TestFrameSizeBound(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	_, err := NewReader(bytes.NewReader(hdr[:])).Read()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	_, err = NewReader(bytes.NewReader(hdr[:])).Read()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("zero-length frame: want ErrFrameTooBig, got %v", err)
	}
}

// A forged batch count larger than the remaining payload must be
// rejected without allocating the claimed capacity.
func TestForgedBatchCount(t *testing.T) {
	body := []byte{TypeBatch}
	body = binary.AppendUvarint(body, 1)           // seq
	body = binary.AppendUvarint(body, 1<<40)       // absurd count
	body = append(body, 0, 0, 0, 0, 0, 0, 0, 0, 0) // one tiny visit's worth
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	binary.BigEndian.PutUint32(hdr[:], crcOf(body))
	buf.Write(hdr[:])
	if _, err := NewReader(&buf).Read(); err == nil {
		t.Fatal("forged batch count decoded cleanly")
	}
}

func crcOf(b []byte) uint32 {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.buf = append(w.buf[:0], b...)
	if err := w.writeFrame(); err != nil {
		return 0
	}
	if err := w.Flush(); err != nil {
		return 0
	}
	out := buf.Bytes()
	return binary.BigEndian.Uint32(out[len(out)-4:])
}

// Unknown frame types and trailing bytes are both protocol errors.
func TestUnknownTypeAndTrailing(t *testing.T) {
	if _, err := NewReader(nil).decode([]byte{99}); err == nil {
		t.Fatal("unknown type decoded cleanly")
	}
	body := []byte{TypeAck}
	body = binary.AppendUvarint(body, 7)
	body = append(body, 0xAB) // trailing garbage
	if _, err := NewReader(nil).decode(body); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}
}

// Version-2 handshake frames round-trip with their auth blobs, and a
// Hello of another version still decodes as far as its version — the
// old-peer rejection path depends on being able to name it.
func TestV2HandshakeFrames(t *testing.T) {
	na, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	nh, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("sesame")
	frames := []Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Node: "host-a", FirstSeq: 3, Nonce: na}},
		{Type: TypeChallenge, Challenge: Challenge{Nonce: nh, Proof: HeadProof(key, na, nh)}},
		{Type: TypeAuth, Auth: Auth{MAC: AgentProof(key, "host-a", na, nh)}},
		{Type: TypeHeartbeat, Heartbeat: Heartbeat{WALDepth: 41, WALSegments: 3, Spilling: true}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, f := range frames {
		var err error
		switch f.Type {
		case TypeHello:
			err = w.WriteHello(f.Hello)
		case TypeChallenge:
			err = w.WriteChallenge(f.Challenge)
		case TypeAuth:
			err = w.WriteAuth(f.Auth)
		case TypeHeartbeat:
			err = w.WriteHeartbeat(f.Heartbeat)
		}
		if err != nil {
			t.Fatalf("write type %d: %v", f.Type, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}

	// A foreign-version Hello decodes to its version and nothing else:
	// whatever follows the version — another shape, or garbage — is not
	// parsed, so the receiver can still phrase a readable rejection.
	for _, rest := range [][]byte{nil, {0x09, 'o', 'l', 'd'}, {0xff, 0xff, 0xff}} {
		got, err := NewReader(nil).decode(append([]byte{TypeHello, 1}, rest...))
		if err != nil {
			t.Fatalf("v1 hello with payload %x: %v", rest, err)
		}
		if !reflect.DeepEqual(got.Hello, Hello{Version: 1}) {
			t.Fatalf("v1 hello with payload %x decoded as %+v", rest, got.Hello)
		}
	}

	// An oversized auth blob is a forged frame, not an allocation.
	body := []byte{TypeAuth}
	body = binary.AppendUvarint(body, maxAuthBlob+1)
	body = append(body, make([]byte, maxAuthBlob+1)...)
	if _, err := NewReader(nil).decode(body); err == nil {
		t.Fatal("oversized MAC decoded cleanly")
	}
}

// Proofs are key-, nonce-, identity- and direction-sensitive.
func TestProofProperties(t *testing.T) {
	na, _ := NewNonce()
	nh, _ := NewNonce()
	key := []byte("k1")
	if !ProofEqual(AgentProof(key, "n", na, nh), AgentProof(key, "n", na, nh)) {
		t.Fatal("proof not deterministic")
	}
	if ProofEqual(AgentProof(key, "n", na, nh), AgentProof([]byte("k2"), "n", na, nh)) {
		t.Fatal("proof ignores key")
	}
	if ProofEqual(AgentProof(key, "n", na, nh), AgentProof(key, "m", na, nh)) {
		t.Fatal("proof ignores node identity")
	}
	if ProofEqual(AgentProof(key, "n", na, nh), AgentProof(key, "n", nh, na)) {
		t.Fatal("proof ignores nonce order")
	}
	if ProofEqual(AgentProof(key, "n", na, nh), HeadProof(key, na, nh)) {
		t.Fatal("agent and head proofs share a domain")
	}
}

// AppendVisits, WriteBatchBody and VisitCount are the agent's batch
// codec: a body encoded once frames byte-identically to WriteBatch, and
// VisitCount refuses exactly the bodies the frame decoder refuses.
func TestVisitPayloadCodec(t *testing.T) {
	visits := []trace.Visit{
		{Server: "web-1", Class: "small", TxnID: 7, HopID: 1, Arrive: 100, Depart: 260, Downstream: 40},
		{Server: "db-1", Class: "big", TxnID: -3, HopID: 2, Arrive: 150, Depart: 240},
	}
	body := AppendVisits(nil, visits)
	frame := func(write func(*Writer) error) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	viaBody := frame(func(w *Writer) error { return w.WriteBatchBody(5, body) })
	viaVisits := frame(func(w *Writer) error { return w.WriteBatch(Batch{Seq: 5, Visits: visits}) })
	if !bytes.Equal(viaBody, viaVisits) {
		t.Fatalf("WriteBatchBody frame %x differs from WriteBatch's %x", viaBody, viaVisits)
	}
	if n, err := VisitCount(body); err != nil || n != len(visits) {
		t.Fatalf("VisitCount = %d, %v; want %d", n, err, len(visits))
	}
	bad := [][]byte{append(slices.Clone(body), 0)}
	for i := range body {
		bad = append(bad, body[:i])
	}
	for _, b := range bad {
		if _, err := VisitCount(b); err == nil {
			t.Errorf("VisitCount accepted malformed body %x", b)
		}
		if _, err := NewReader(bytes.NewReader(frame(func(w *Writer) error { return w.WriteBatchBody(5, b) }))).Read(); err == nil {
			t.Errorf("frame decoder accepted malformed body %x", b)
		}
	}
}

// loopReader serves frames over and over, so a Reader never runs dry.
type loopReader struct {
	frames []byte
	off    int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frames[l.off:])
	l.off = (l.off + n) % len(l.frames)
	return n, nil
}

// agentBatch is an agent's default cut: 512 visits over six servers and
// 40 classes.
func agentBatch() []trace.Visit {
	vs := make([]trace.Visit, 512)
	for i := range vs {
		vs[i] = trace.Visit{Server: fmt.Sprintf("tier-%d", i%6), Class: fmt.Sprintf("class-%d", i%40),
			TxnID: int64(i), HopID: 1, Arrive: simnet.Time(10 * i), Depart: simnet.Time(10*i + 7), Downstream: 3}
	}
	return vs
}

// encodeBatches frames each of batches, sequence-numbered from 1.
func encodeBatches(t testing.TB, batches ...[]trace.Visit) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, vs := range batches {
		if err := w.WriteBatch(Batch{Seq: uint64(i + 1), Visits: vs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Once a connection has interned its names and grown its visits slice, a
// batch frame decodes without allocating.
func TestReaderBatchAllocs(t *testing.T) {
	vs := agentBatch()
	r := NewReader(&loopReader{frames: encodeBatches(t, vs, vs[:100])})
	read := func() {
		f, err := r.Read()
		if err != nil || f.Type != TypeBatch || len(f.Batch.Visits) == 0 {
			t.Fatalf("read a batch: %+v, %v", f.Type, err)
		}
	}
	read()
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Errorf("a batch frame costs %v allocations, want 0", got)
	}
	f, err := r.Read()
	if f.Batch.Seq != 1 {
		f, err = r.Read()
	}
	if err != nil || !reflect.DeepEqual(f.Batch.Visits, vs) {
		t.Fatalf("batch 1 after reuse decodes to %d visits (err %v), want the %d written", len(f.Batch.Visits), err, len(vs))
	}
}

// A connection's name table stops at 1 024 names of at most 64 bytes;
// names past either bound still decode exactly.
func TestReaderInternBounds(t *testing.T) {
	var a, b []trace.Visit
	for i := range 1500 {
		a = append(a, trace.Visit{Server: fmt.Sprintf("server-%d", i), Class: strings.Repeat("c", 60+i%10), Arrive: 1, Depart: 2})
		b = append(b, trace.Visit{Server: fmt.Sprintf("other-%d", i), Class: strings.Repeat("d", 65), Arrive: 3, Depart: 4})
	}
	r := NewReader(bytes.NewReader(encodeBatches(t, a, b)))
	for _, want := range [][]trace.Visit{a, b} {
		f, err := r.Read()
		if err != nil || !reflect.DeepEqual(f.Batch.Visits, want) {
			t.Fatalf("batch of %d long or distinct names decodes to %d visits (err %v)", len(want), len(f.Batch.Visits), err)
		}
		if len(r.names) != 1024 {
			t.Errorf("name table holds %d names, want its cap of 1024", len(r.names))
		}
	}
	for name := range r.names {
		if len(name) > 64 {
			t.Errorf("name table holds a %d-byte name", len(name))
		}
	}
}

// BenchmarkReaderBatch decodes agent-sized batch frames on one
// connection: the head's per-record decode cost in steady state.
func BenchmarkReaderBatch(b *testing.B) {
	vs := agentBatch()
	r := NewReader(&loopReader{frames: encodeBatches(b, vs)})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/record")
}
