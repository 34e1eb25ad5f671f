// Package wire is the binary protocol between per-host trace agents and
// the merge head: the network shape of distributed ingestion. It is
// deliberately small — length-prefixed frames with a CRC, a versioned
// handshake, sequence-numbered record batches, heartbeats and an
// explicit end-of-stream — because every robustness property of the
// distributed pipeline (exactly-once delivery, reconnect-and-resume,
// partition detection) is built from these few frames, and a frame
// format that cannot be mis-parsed is the first line of defense on a
// lossy network.
//
// # Frame layout
//
//	[4 bytes big-endian payload length] [1 byte frame type] [payload] [4 bytes CRC-32 (IEEE) over type+payload]
//
// The length covers the type byte and payload (not itself, not the
// CRC). A frame whose CRC does not match, whose length exceeds
// MaxFrameSize, or whose payload does not parse is a protocol error:
// the connection is unusable (framing may be lost) and must be closed.
// Sequence numbering makes the close safe — the sender retransmits
// everything unacknowledged on the next connection.
//
// # Conversation
//
// The agent opens with Hello{Version, Node, FirstSeq}; the merge head
// answers Welcome{Version, LastAcked} (or Error, then close). FirstSeq
// declares the lowest batch sequence the agent can still transmit, so
// the head knows whether a first batch past its own cursor is a ring
// that legitimately begins there (the head restarted cold) or a batch
// lost in transit (close, and the agent retransmits). LastAcked is the
// highest batch sequence the head has durably applied for this node —
// the agent's resume cursor: batches at or below it are never re-sent,
// batches above it are retransmitted in order. Then the agent streams
// Batch frames (acknowledged individually with Ack) and Heartbeat
// frames, which say only that the agent is alive (plus its write-ahead
// log telemetry) and are answered with Ack as a liveness echo, and ends
// with Goodbye{FinalSeq} once every batch through FinalSeq is
// acknowledged. The head echoes the Goodbye back (Reason "ack") as the
// clean-completion confirmation the agent waits for before closing —
// without it the agent could not distinguish "the head accepted my
// end-of-stream" from "the connection died at the worst moment".
//
// Batch sequence numbers are assigned by position in the node's source
// stream (1, 2, 3… with a fixed batch size), so a restarted agent
// re-reading the same source regenerates the identical sequence — the
// merge head's (node, seq) dedup then makes redelivery harmless, which
// is what turns at-least-once retransmission into exactly-once
// application.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Version is the protocol version this build speaks. A merge head
// rejects a Hello with a different major version via an Error frame —
// explicit, debuggable incompatibility instead of garbled frames.
//
// Version 2 added authenticated sessions (Hello.Nonce and the
// Challenge/Auth exchange) and durability telemetry on heartbeats
// (Heartbeat.WALDepth/WALSegments/Spilling). Version 3 dropped the
// heartbeat's departure horizon (MaxDepart): the agent only ever
// advertised departures the head had already acknowledged, so it never
// told the head anything new. A Hello of any other version decodes to
// its version number alone, which is all a peer needs to phrase a
// readable rejection instead of a framing error.
const Version = 3

// MaxFrameSize bounds the length prefix (type byte + payload). It caps
// a batch at roughly 16k visits — far above any sane batch size — so a
// corrupt or hostile length prefix cannot make the reader allocate
// unbounded memory.
const MaxFrameSize = 1 << 20

// Frame types. The type byte is covered by the CRC, so a flipped type
// is caught before dispatch.
const (
	TypeHello     byte = 1
	TypeWelcome   byte = 2
	TypeBatch     byte = 3
	TypeAck       byte = 4
	TypeHeartbeat byte = 5
	TypeGoodbye   byte = 6
	TypeError     byte = 7
	TypeChallenge byte = 8
	TypeAuth      byte = 9
)

// ErrFrameTooBig reports a length prefix beyond MaxFrameSize.
var ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrameSize")

// ErrBadCRC reports a frame whose checksum does not match its bytes.
var ErrBadCRC = errors.New("wire: frame CRC mismatch")

// Hello opens a connection: who is calling and what it speaks.
type Hello struct {
	Version int
	// Node is the agent's stable identity — the key of the merge head's
	// dedup and watermark state. It must survive agent restarts.
	Node string
	// FirstSeq is the lowest batch sequence the agent can still
	// (re)transmit: the start of its unacknowledged ring, or the next
	// sequence it will produce when nothing is pending. The head uses it
	// to tell "my ring genuinely begins past 1" (a head that restarted
	// cold mid-stream) apart from "an early batch was lost on the wire" —
	// without it, a dropped first batch would be silently skipped.
	FirstSeq uint64
	// Nonce is the agent's fresh random challenge for the mutual HMAC
	// handshake: the head's Challenge.Proof must cover it, so a recorded
	// handshake cannot be replayed.
	Nonce []byte
}

// Welcome accepts a Hello. LastAcked is the node's resume cursor: the
// highest batch sequence already applied (0 if the node is new).
type Welcome struct {
	Version   int
	LastAcked uint64
}

// Batch carries one sequence-numbered slice of completed visits.
type Batch struct {
	Seq    uint64
	Visits []trace.Visit
}

// Ack acknowledges application (or deduplication) of every batch up to
// and including Seq. Also sent in reply to a Heartbeat, as a liveness
// echo.
type Ack struct {
	Seq uint64
}

// Heartbeat says the agent is alive while its feed is quiet, so the
// merge head does not degrade the node. It carries no records and no
// departure horizon: a node's watermark rises only from batches the
// head applies. It does carry the agent's durability state so the head
// can export it (the agent has no scrape endpoint of its own).
type Heartbeat struct {
	// WALDepth is the number of unacknowledged batches durable in the
	// agent's write-ahead log (0 when the agent runs without one);
	// WALSegments its on-disk segment count; Spilling reports batches
	// waiting on disk beyond the in-memory send window.
	WALDepth    uint64
	WALSegments uint64
	Spilling    bool
}

// Challenge is the merge head's half of the mutual authentication
// exchange (version ≥ 2, only when the head has a shared key): Nonce is
// the head's fresh challenge for the agent's proof, and Proof is the
// head's own HMAC over both nonces (HeadProof) — the agent verifies it
// so a rogue listener cannot impersonate the head.
type Challenge struct {
	Nonce []byte
	Proof []byte
}

// Auth is the agent's answer to a Challenge: MAC is AgentProof over the
// node identity and both nonces. The head verifies it before admitting
// the node; a bad MAC is rejected with an Error frame and counted.
type Auth struct {
	MAC []byte
}

// Goodbye ends a node's stream cleanly after FinalSeq batches. Reason
// is free-form ("eof", "drain").
type Goodbye struct {
	FinalSeq uint64
	Reason   string
}

// ErrorFrame rejects a connection with a reason the operator can read
// on the agent side (version mismatch, sequence gap, bad handshake).
type ErrorFrame struct {
	Msg string
}

// appendUvarint / appendString / appendVisit build payloads with the
// minimal varint encoding; strings are uvarint-length-prefixed.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// maxAuthBlob bounds nonce and MAC fields (a nonce is 16 bytes, an
// HMAC-SHA256 is 32) so a forged length cannot balloon a handshake.
const maxAuthBlob = 64

func appendBytes(b, blob []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

func appendVisit(b []byte, v *trace.Visit) []byte {
	b = appendString(b, v.Server)
	b = appendString(b, v.Class)
	b = binary.AppendVarint(b, v.TxnID)
	b = binary.AppendVarint(b, v.HopID)
	b = binary.AppendVarint(b, int64(v.Arrive))
	b = binary.AppendVarint(b, int64(v.Depart))
	return binary.AppendVarint(b, int64(v.Downstream))
}

// payloadReader walks an encoded payload; any overrun or malformed
// varint poisons it, and err is checked once at the end of decoding.
type payloadReader struct {
	buf []byte
	err error
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errors.New("wire: truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = errors.New("wire: truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// field reads a length-prefixed string's bytes, aliasing the payload.
func (r *payloadReader) field() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = errors.New("wire: string overruns payload")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *payloadReader) string() string { return string(r.field()) }

// bytes reads a length-prefixed auth blob (nonce or MAC) into a copy.
func (r *payloadReader) bytes() []byte {
	b := r.field()
	if len(b) > maxAuthBlob {
		r.err = errors.New("wire: auth blob too long")
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *payloadReader) visit() trace.Visit {
	var v trace.Visit
	v.Server = r.string()
	v.Class = r.string()
	v.TxnID = r.varint()
	v.HopID = r.varint()
	v.Arrive = simnet.Time(r.varint())
	v.Depart = simnet.Time(r.varint())
	v.Downstream = simnet.Duration(r.varint())
	return v
}

// skipVisit walks one visit's encoding as visit reads it — Server and
// Class, then the five varints — without building the visit.
func (r *payloadReader) skipVisit() {
	r.field()
	r.field()
	for range 5 {
		r.varint()
	}
}

// minVisitBytes is the smallest encoding appendVisit can produce: two
// empty length-prefixed strings and five one-byte varints.
const minVisitBytes = 7

// maxVisitPrealloc caps the capacity a batch body reserves up front,
// above the agent's default batch of 512; a larger honest batch grows by
// append as its visits decode.
const maxVisitPrealloc = 1024

// visits reads a count-prefixed batch body. A count the rest of the
// payload cannot hold at minVisitBytes a visit is a forged header, not a
// big batch, and is rejected before anything is allocated for it. A count
// that fits reserves at most maxVisitPrealloc visits, so a body that
// fails partway costs what it decoded, not what it claimed.
func (r *payloadReader) visits() []trace.Visit {
	count := r.uvarint()
	if r.err != nil {
		return nil
	}
	if count > uint64(len(r.buf))/minVisitBytes {
		r.err = fmt.Errorf("wire: visit count %d overruns payload", count)
		return nil
	}
	vs := make([]trace.Visit, 0, min(count, maxVisitPrealloc))
	for i := uint64(0); i < count && r.err == nil; i++ {
		vs = append(vs, r.visit())
	}
	return vs
}

func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.buf))
	}
	return nil
}

// Writer frames and checksums outgoing messages. Not safe for
// concurrent use; connections have a single writer goroutine.
type Writer struct {
	w   *bufio.Writer
	buf []byte // reused frame scratch: type + payload
}

// NewWriter wraps w. Flush must be called to push buffered frames.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// writeFrame emits one frame from w.buf (type byte + payload).
func (w *Writer) writeFrame() error {
	if len(w.buf) > MaxFrameSize {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(w.buf)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(w.buf))
	_, err := w.w.Write(hdr[:])
	return err
}

// WriteHello frames h.
func (w *Writer) WriteHello(h Hello) error {
	w.buf = append(w.buf[:0], TypeHello)
	w.buf = binary.AppendUvarint(w.buf, uint64(h.Version))
	w.buf = appendString(w.buf, h.Node)
	w.buf = binary.AppendUvarint(w.buf, h.FirstSeq)
	w.buf = appendBytes(w.buf, h.Nonce)
	return w.writeFrame()
}

// WriteWelcome frames wl.
func (w *Writer) WriteWelcome(wl Welcome) error {
	w.buf = append(w.buf[:0], TypeWelcome)
	w.buf = binary.AppendUvarint(w.buf, uint64(wl.Version))
	w.buf = binary.AppendUvarint(w.buf, wl.LastAcked)
	return w.writeFrame()
}

// WriteBatch frames b.
func (w *Writer) WriteBatch(b Batch) error {
	w.buf = append(w.buf[:0], TypeBatch)
	w.buf = binary.AppendUvarint(w.buf, b.Seq)
	w.buf = AppendVisits(w.buf, b.Visits)
	return w.writeFrame()
}

// WriteBatchBody frames batch seq around body, a batch body already
// encoded by AppendVisits: the frame is byte-identical to WriteBatch's
// for the same visits.
func (w *Writer) WriteBatchBody(seq uint64, body []byte) error {
	w.buf = append(w.buf[:0], TypeBatch)
	w.buf = binary.AppendUvarint(w.buf, seq)
	w.buf = append(w.buf, body...)
	return w.writeFrame()
}

// AppendVisits appends the canonical batch-body encoding of visits
// (count-prefixed records) to dst — the same bytes WriteBatch puts on
// the wire after the sequence number. The agent encodes each cut batch
// once with it; its write-ahead log stores that body and
// WriteBatchBody sends it, so a batch replayed from disk is
// byte-identical to one cut fresh from the source.
func AppendVisits(dst []byte, visits []trace.Visit) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(visits)))
	for i := range visits {
		dst = appendVisit(dst, &visits[i])
	}
	return dst
}

// VisitCount checks that body is a well-formed AppendVisits encoding
// and returns how many visits it holds, without decoding them (it
// allocates nothing; a forged count fails at the first overrun).
func VisitCount(body []byte) (int, error) {
	p := payloadReader{buf: body}
	count := p.uvarint()
	for i := uint64(0); i < count && p.err == nil; i++ {
		p.skipVisit()
	}
	if err := p.done(); err != nil {
		return 0, err
	}
	return int(count), nil
}

// WriteAck frames a.
func (w *Writer) WriteAck(a Ack) error {
	w.buf = append(w.buf[:0], TypeAck)
	w.buf = binary.AppendUvarint(w.buf, a.Seq)
	return w.writeFrame()
}

// WriteHeartbeat frames h (the handshake pins both peers to one
// version, so a mixed-version session never streams).
func (w *Writer) WriteHeartbeat(h Heartbeat) error {
	w.buf = append(w.buf[:0], TypeHeartbeat)
	w.buf = binary.AppendUvarint(w.buf, h.WALDepth)
	w.buf = binary.AppendUvarint(w.buf, h.WALSegments)
	spill := uint64(0)
	if h.Spilling {
		spill = 1
	}
	w.buf = binary.AppendUvarint(w.buf, spill)
	return w.writeFrame()
}

// WriteChallenge frames c.
func (w *Writer) WriteChallenge(c Challenge) error {
	w.buf = append(w.buf[:0], TypeChallenge)
	w.buf = appendBytes(w.buf, c.Nonce)
	w.buf = appendBytes(w.buf, c.Proof)
	return w.writeFrame()
}

// WriteAuth frames a.
func (w *Writer) WriteAuth(a Auth) error {
	w.buf = append(w.buf[:0], TypeAuth)
	w.buf = appendBytes(w.buf, a.MAC)
	return w.writeFrame()
}

// WriteGoodbye frames g.
func (w *Writer) WriteGoodbye(g Goodbye) error {
	w.buf = append(w.buf[:0], TypeGoodbye)
	w.buf = binary.AppendUvarint(w.buf, g.FinalSeq)
	w.buf = appendString(w.buf, g.Reason)
	return w.writeFrame()
}

// WriteError frames e.
func (w *Writer) WriteError(e ErrorFrame) error {
	w.buf = append(w.buf[:0], TypeError)
	w.buf = appendString(w.buf, e.Msg)
	return w.writeFrame()
}

// Frame is one decoded incoming frame: Type selects which field is set.
type Frame struct {
	Type      byte
	Hello     Hello
	Welcome   Welcome
	Batch     Batch
	Ack       Ack
	Heartbeat Heartbeat
	Goodbye   Goodbye
	Error     ErrorFrame
	Challenge Challenge
	Auth      Auth
}

// Reader decodes frames from a connection. Not safe for concurrent
// use.
type Reader struct {
	r   *bufio.Reader
	buf []byte // reused frame scratch
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Read decodes the next frame. io.EOF is returned only at a clean
// frame boundary; a connection cut mid-frame is io.ErrUnexpectedEOF.
// Any CRC, size or parse failure means framing is lost: the caller
// must close the connection.
func (r *Reader) Read() (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF here is a clean boundary
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameSize {
		return Frame{}, ErrFrameTooBig
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if binary.BigEndian.Uint32(hdr[:]) != crc32.ChecksumIEEE(r.buf) {
		return Frame{}, ErrBadCRC
	}
	return decodeFrame(r.buf)
}

// decodeFrame parses one checksummed frame body (type byte + payload).
func decodeFrame(body []byte) (Frame, error) {
	f := Frame{Type: body[0]}
	p := payloadReader{buf: body[1:]}
	switch f.Type {
	case TypeHello:
		ver := p.uvarint()
		if ver > math.MaxInt32 {
			return Frame{}, fmt.Errorf("wire: absurd hello version %d", ver)
		}
		if p.err == nil && ver != Version {
			// Another version's payload is not ours to parse: the version
			// is what the receiver needs to say why it refuses the peer.
			f.Hello = Hello{Version: int(ver)}
			return f, nil
		}
		f.Hello = Hello{Version: int(ver), Node: p.string(), FirstSeq: p.uvarint(), Nonce: p.bytes()}
	case TypeWelcome:
		ver := p.uvarint()
		if ver > math.MaxInt32 {
			return Frame{}, fmt.Errorf("wire: absurd welcome version %d", ver)
		}
		f.Welcome = Welcome{Version: int(ver), LastAcked: p.uvarint()}
	case TypeBatch:
		f.Batch = Batch{Seq: p.uvarint(), Visits: p.visits()}
	case TypeAck:
		f.Ack = Ack{Seq: p.uvarint()}
	case TypeHeartbeat:
		f.Heartbeat = Heartbeat{
			WALDepth:    p.uvarint(),
			WALSegments: p.uvarint(),
			Spilling:    p.uvarint() != 0,
		}
	case TypeChallenge:
		f.Challenge = Challenge{Nonce: p.bytes(), Proof: p.bytes()}
	case TypeAuth:
		f.Auth = Auth{MAC: p.bytes()}
	case TypeGoodbye:
		f.Goodbye = Goodbye{FinalSeq: p.uvarint(), Reason: p.string()}
	case TypeError:
		f.Error = ErrorFrame{Msg: p.string()}
	default:
		return Frame{}, fmt.Errorf("wire: unknown frame type %d", f.Type)
	}
	if err := p.done(); err != nil {
		return Frame{}, err
	}
	return f, nil
}
