package wal

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func testOpen(t *testing.T, dir string, segBytes int) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(Options{Dir: dir, SegmentBytes: segBytes, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func body(seq uint64) []byte {
	// Variable-length, content-checkable bodies.
	b := []byte(fmt.Sprintf("record-%d|", seq))
	for i := 0; i < int(seq%17); i++ {
		b = append(b, byte(seq+uint64(i)))
	}
	return b
}

func appendN(t *testing.T, l *Log, from, through uint64) {
	t.Helper()
	for seq := from; seq <= through; seq++ {
		if err := l.Append(seq, body(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
}

func readAll(t *testing.T, l *Log) map[uint64][]byte {
	t.Helper()
	got := make(map[uint64][]byte)
	if l.Records() == 0 {
		return got
	}
	c, err := l.ReadCursor(l.FirstSeq())
	if err != nil {
		t.Fatalf("ReadCursor(%d): %v", l.FirstSeq(), err)
	}
	defer c.Close()
	for {
		seq, b, err := c.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got[seq] = append([]byte(nil), b...)
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := testOpen(t, dir, 256) // small segments: force rotation
	if rec.Records != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	appendN(t, l, 1, 100)
	if l.FirstSeq() != 1 || l.LastSeq() != 100 || l.Records() != 100 {
		t.Fatalf("extent = [%d,%d] n=%d", l.FirstSeq(), l.LastSeq(), l.Records())
	}
	if l.Segments() < 3 {
		t.Fatalf("expected rotation at 256-byte segments, got %d segment(s)", l.Segments())
	}
	got := readAll(t, l)
	for seq := uint64(1); seq <= 100; seq++ {
		if !bytes.Equal(got[seq], body(seq)) {
			t.Fatalf("record %d corrupted: %q", seq, got[seq])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := testOpen(t, dir, 256)
	defer l2.Close()
	if rec2.Records != 100 || rec2.FirstSeq != 1 || rec2.LastSeq != 100 || rec2.TornBytes != 0 {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	// Appends continue into the recovered tail.
	appendN(t, l2, 101, 110)
	got = readAll(t, l2)
	if len(got) != 110 || !bytes.Equal(got[110], body(110)) {
		t.Fatalf("post-reopen append lost records: %d held", len(got))
	}
}

func TestAppendContiguityEnforced(t *testing.T) {
	l, _ := testOpen(t, t.TempDir(), 0)
	defer l.Close()
	appendN(t, l, 1, 3)
	if err := l.Append(5, body(5)); err == nil {
		t.Fatal("gap append accepted")
	}
	if err := l.Append(3, body(3)); err == nil {
		t.Fatal("backward append accepted")
	}
	if err := l.Append(0, nil); err == nil {
		t.Fatal("sequence 0 accepted")
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, 200)
	appendN(t, l, 1, 60)
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("need several segments, got %d", segs)
	}
	// Acknowledge through the middle: only whole segments go.
	removed, err := l.TruncateThrough(30)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing removed")
	}
	if l.FirstSeq() > 31 {
		t.Fatalf("truncation removed unacked records: first=%d", l.FirstSeq())
	}
	got := readAll(t, l)
	for seq := uint64(31); seq <= 60; seq++ {
		if !bytes.Equal(got[seq], body(seq)) {
			t.Fatalf("record %d lost by truncation", seq)
		}
	}
	// Acknowledge everything: the log empties but the contiguity anchor
	// survives a reopen (next append must still be 61).
	if _, err := l.TruncateThrough(60); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 || l.FirstSeq() != 0 {
		t.Fatalf("not empty after full truncation: n=%d first=%d", l.Records(), l.FirstSeq())
	}
	appendN(t, l, 61, 65)
	if l.FirstSeq() != 61 || l.LastSeq() != 65 {
		t.Fatalf("extent after re-append = [%d,%d]", l.FirstSeq(), l.LastSeq())
	}
	l.Close()
	l2, rec := testOpen(t, dir, 200)
	defer l2.Close()
	if rec.FirstSeq != 61 || rec.LastSeq != 65 {
		t.Fatalf("reopen after truncation = %+v", rec)
	}
}

func TestCursorTailsAcrossAppendsAndTruncation(t *testing.T) {
	l, _ := testOpen(t, t.TempDir(), 150)
	defer l.Close()
	appendN(t, l, 1, 10)
	c, err := l.ReadCursor(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for want := uint64(1); want <= 10; want++ {
		seq, _, err := c.Next()
		if err != nil || seq != want {
			t.Fatalf("Next = %d, %v; want %d", seq, err, want)
		}
	}
	if _, _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v; want EOF", err)
	}
	// Appends after EOF: the same cursor picks them up (spill drain).
	appendN(t, l, 11, 40)
	if _, err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	for want := uint64(11); want <= 40; want++ {
		seq, b, err := c.Next()
		if err != nil || seq != want {
			t.Fatalf("tailing Next = %d, %v; want %d", seq, err, want)
		}
		if !bytes.Equal(b, body(want)) {
			t.Fatalf("tailing record %d corrupted", want)
		}
	}
}

// TestTornFinalRecordDiscarded is the crash-mid-write property: for
// every possible cut point inside the final record's frame, reopening
// discards exactly that record, keeps every earlier one, and appends
// resume cleanly at the discarded sequence.
func TestTornFinalRecordDiscarded(t *testing.T) {
	const n = 12
	// Build a reference log once to learn the final frame's extent.
	refDir := t.TempDir()
	ref, _ := testOpen(t, refDir, 1<<20) // one segment
	appendN(t, ref, 1, n)
	ref.Close()
	segs, err := filepath.Glob(filepath.Join(refDir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame's start by replaying lengths.
	off := 0
	lastStart := 0
	for off < len(whole) {
		lastStart = off
		plen := int(uint32(whole[off])<<24 | uint32(whole[off+1])<<16 | uint32(whole[off+2])<<8 | uint32(whole[off+3]))
		off += 4 + plen + 4
	}
	if off != len(whole) {
		t.Fatalf("frame walk out of sync: %d != %d", off, len(whole))
	}

	for cut := lastStart + 1; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec := testOpen(t, dir, 1<<20)
		if rec.Records != n-1 || rec.LastSeq != n-1 {
			t.Fatalf("cut@%d: recovery = %+v; want %d whole records", cut, rec, n-1)
		}
		if rec.TornBytes != int64(cut-lastStart) {
			t.Fatalf("cut@%d: TornBytes = %d; want %d", cut, rec.TornBytes, cut-lastStart)
		}
		// The discarded sequence is re-appendable: the tear left no trace.
		if err := l.Append(n, body(n)); err != nil {
			t.Fatalf("cut@%d: re-append after tear: %v", cut, err)
		}
		got := readAll(t, l)
		for seq := uint64(1); seq <= n; seq++ {
			if !bytes.Equal(got[seq], body(seq)) {
				t.Fatalf("cut@%d: record %d wrong after recovery", cut, seq)
			}
		}
		l.Close()
		// Second open is clean: recovery truncated physically.
		l2, rec2 := testOpen(t, dir, 1<<20)
		if rec2.TornBytes != 0 || rec2.Records != n {
			t.Fatalf("cut@%d: second recovery not clean: %+v", cut, rec2)
		}
		l2.Close()
	}
}

// TestCorruptMidSegmentTruncatesTail: a flipped byte in the middle of a
// segment costs the records from that frame on — never the ones before.
func TestCorruptMidSegmentTruncatesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		l, _ := testOpen(t, dir, 1<<20)
		appendN(t, l, 1, 30)
		l.Close()
		seg := filepath.Join(dir, segName(1))
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(len(raw))
		raw[i] ^= 0x40
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := testOpen(t, dir, 1<<20)
		if rec.Records >= 30 {
			// The flip may hit a body byte whose CRC catches it, or a
			// header; either way at least the containing record dies.
			t.Fatalf("trial %d: corruption at byte %d survived: %+v", trial, i, rec)
		}
		got := readAll(t, l2)
		for seq := uint64(1); seq <= rec.LastSeq; seq++ {
			if !bytes.Equal(got[seq], body(seq)) {
				t.Fatalf("trial %d: surviving record %d corrupted", trial, seq)
			}
		}
		l2.Close()
	}
}

// FuzzWALReplay feeds arbitrary bytes in as a segment file: Open must
// never panic, must report a self-consistent extent, and the log must
// accept appends afterward and reopen cleanly.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all"))
	// A well-formed two-record segment as a seed.
	seedDir := f.TempDir()
	l, _, err := Open(Options{Dir: seedDir, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	l.Append(1, []byte("alpha"))
	l.Append(2, []byte("beta"))
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(seedDir, "*"+segSuffix))
	if len(segs) == 1 {
		if raw, err := os.ReadFile(segs[0]); err == nil {
			f.Add(raw)
			f.Add(raw[:len(raw)-3]) // torn tail
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		l, rec, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("Open on fuzz data errored (should recover): %v", err)
		}
		if rec.Records > 0 && uint64(rec.Records) != rec.LastSeq-rec.FirstSeq+1 {
			t.Fatalf("inconsistent extent: %+v", rec)
		}
		// Replay resumes from the last whole frame: every surviving
		// record must read back, and the next contiguous append must
		// succeed.
		if rec.Records > 0 {
			c, err := l.ReadCursor(rec.FirstSeq)
			if err != nil {
				t.Fatalf("cursor over recovered log: %v", err)
			}
			n := 0
			for {
				_, _, err := c.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("read recovered record: %v", err)
				}
				n++
			}
			c.Close()
			if n != rec.Records {
				t.Fatalf("recovered %d records, cursor read %d", rec.Records, n)
			}
		}
		if l.LastSeq() == ^uint64(0) {
			l.Close()
			t.Skip("recovered sequence at uint64 max; no contiguous append exists")
		}
		if err := l.Append(l.LastSeq()+1, []byte("after-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		l2, rec2, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if rec2.TornBytes != 0 {
			t.Fatalf("second open found torn bytes (truncation not physical): %+v", rec2)
		}
		if rec2.Records != rec.Records+1 {
			t.Fatalf("append lost across reopen: %d -> %d", rec.Records, rec2.Records)
		}
		l2.Close()
	})
}

// waitDurable blocks until the syncer has made seq durable.
func waitDurable(t testing.TB, l *Log, seq uint64) {
	t.Helper()
	for {
		d, err := l.Durable()
		if err != nil {
			t.Fatalf("sync: %v", err)
		}
		if d > l.LastSeq() {
			t.Fatalf("durable mark %d passed the last append %d", d, l.LastSeq())
		}
		if d >= seq {
			return
		}
		<-l.Synced()
	}
}

// With fsync on, appends return before they are durable and the syncer
// catches up across rotations and truncation; a reopened log fsyncs what
// it recovered and is durable through it before anything is appended.
func TestDurableMark(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 60)
	waitDurable(t, l, 60)
	if _, err := l.TruncateThrough(60); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 61, 90)
	waitDurable(t, l, 90)
	if l.Syncs() == 0 {
		t.Error("no fsync issued for 90 appends")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.FirstSeq != 61 || rec.LastSeq != 90 {
		t.Fatalf("reopened: recovered [%d, %d], want [61, 90]", rec.FirstSeq, rec.LastSeq)
	}
	waitDurable(t, l2, 90)
	if l2.Syncs() == 0 {
		t.Error("the recovered log was not fsynced")
	}
}

// BenchmarkAppendDurable appends agent-sized batch bodies with fsync on
// and waits until the last is durable: the group commit's cost per batch.
func BenchmarkAppendDurable(b *testing.B) {
	l, _, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	body := bytes.Repeat([]byte{7}, 512*40)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := l.Append(uint64(i), body); err != nil {
			b.Fatal(err)
		}
	}
	waitDurable(b, l, uint64(b.N))
	b.ReportMetric(float64(l.Syncs())/float64(b.N), "fsyncs/batch")
}
