package traceio

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"transientbd/internal/trace"
)

// TestStreamVisitsParallelMatchesStream holds StreamVisitsParallel to
// StreamVisitsOpts over the fragmentation inputs and over lines either
// side of maxLineBytes: the same visits in the same order, the same Stats
// with the same first line errors, and the same strict error. Blocks of
// 1 to 8 lines put every kind of line — bad, overlong, CRLF, blank, only
// encoding/json's, the truncated last one — first and last in a block,
// and the first line errors Stats keeps spread over many blocks; sources
// that return half a read or one byte at a time cut blocks where bufio
// ran dry instead.
func TestStreamVisitsParallelMatchesStream(t *testing.T) {
	long := visitLine1[:len(visitLine1)-1] + `,"pad":"` + strings.Repeat("p", 70<<10) + `"}`
	pad := func(n int) string { // a usable line of n bytes with its newline
		return visitLine2 + strings.Repeat(" ", n-len(visitLine2)-1) + "\n"
	}
	limits := visitLine1 + "\n" + long + "\r\n" + pad(maxLineBytes) + pad(maxLineBytes+1) +
		strings.Repeat(" ", maxLineBytes+1) + "\n" + long + "\n" + visitLine1 + "\n" + pad(maxLineBytes+200<<10) +
		visitLine2 + "\n" + pad(maxLineBytes + 1)[:maxLineBytes]
	var errs strings.Builder // more bad lines than Stats keeps
	for i := range 12 {
		errs.WriteString(visitLine1 + "\n{bad\n" + `{"server":"s","arrive_us":9,"depart_us":1}` + "\n")
		if i%4 == 0 {
			errs.WriteString("\r\n")
		}
	}
	cases := append(fragmentCases(true),
		fragmentCase{"limits/strict", limits, StreamOptions{Policy: Strict, BatchSize: 7}, "traceio: line 4: line longer than"},
		fragmentCase{"limits/skip", limits, StreamOptions{Policy: Skip, BatchSize: 7}, ""},
		fragmentCase{"errors/strict", errs.String(), StreamOptions{Policy: Strict, BatchSize: 7}, "traceio: line 2: "},
		fragmentCase{"errors/skip", errs.String(), StreamOptions{Policy: Skip, BatchSize: 7}, ""})
	for _, c := range cases {
		want := c.read(t, strings.NewReader(c.in))
		lenient := c.lenient().read(t, strings.NewReader(c.in))
		if (want.err == "") != (c.errHas == "") || !strings.Contains(want.err, c.errHas) {
			t.Fatalf("%s: StreamVisitsOpts fails with %q, want %q", c.name, want.err, c.errHas)
		}
		for _, workers := range []int{1, 2, 8} {
			for size := 1; size <= 8; size++ {
				p := c
				p.opts.BatchSize = size
				c.checkAgainst(t, fmt.Sprintf("at %d workers, %d-line blocks", workers, size), p.readParallel(t, strings.NewReader(c.in), workers), want, lenient)
			}
			for name, wrap := range map[string]func(io.Reader) io.Reader{"half": iotest.HalfReader, "one-byte": iotest.OneByteReader} {
				c.checkAgainst(t, fmt.Sprintf("at %d workers, %s reads", workers, name), c.readParallel(t, wrap(strings.NewReader(c.in)), workers), want, lenient)
			}
		}
	}
}

// FuzzStreamVisitsParallel runs arbitrary bytes through both readers, at
// either policy, whole or in half reads, and requires the same visits,
// Stats and error.
func FuzzStreamVisitsParallel(f *testing.F) {
	clean, dirty := fragmentInputs(false)
	f.Add([]byte(clean), uint8(6), uint8(1))
	f.Add([]byte(dirty), uint8(2), uint8(7))
	f.Add([]byte("\n\r\n"+visitLine1+"\n{bad\n"+visitLine2), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, size, workers uint8) {
		for _, policy := range []Policy{Strict, Skip} {
			c := fragmentCase{name: "fuzz", in: string(data), opts: StreamOptions{Policy: policy, BatchSize: int(size%16) + 1}}
			want := c.read(t, bytes.NewReader(data))
			lenient := c.lenient().read(t, bytes.NewReader(data))
			n, src := int(workers%8)+1, io.Reader(bytes.NewReader(data))
			if workers&8 != 0 {
				src = iotest.HalfReader(src)
			}
			c.checkAgainst(t, fmt.Sprintf("policy %d, %d workers, reads %T", policy, n, src), c.readParallel(t, src, n), want, lenient)
		}
	})
}

// TestStreamVisitsParallelAllocBudget pins StreamVisitsParallel at no
// allocation per record: its set-up (the goroutines, channels, line
// buffer, name tables and blocks) is the same for a long read as for a
// short one, because a block's lines and visits reuse its buffers, so
// twice the records cost at most a few more allocations.
func TestStreamVisitsParallelAllocBudget(t *testing.T) {
	const records = 20000
	data := canonicalTrace(t, 2*records)
	perRead := func(n int) float64 {
		in := data[:len(canonicalTrace(t, n))] // the first n lines
		r := bytes.NewReader(nil)
		return testing.AllocsPerRun(5, func() {
			r.Reset(in)
			stats, err := StreamVisitsParallel(r, StreamOptions{}, 2, func([]trace.Visit) error { return nil })
			if err != nil || stats.Decoded != n {
				t.Fatalf("decoded %d of %d: %v", stats.Decoded, n, err)
			}
		})
	}
	if short, long := perRead(records), perRead(2*records); long > short+8 {
		t.Fatalf("%.0f allocs per %d-record read, %.0f per %d-record read: records are allocating", long, 2*records, short, records)
	}
}
