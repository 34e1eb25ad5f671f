package traceio

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"transientbd/internal/trace"
)

// fragmentInputs builds the two inputs of the fragmentation property.
// clean holds only usable lines — canonical ones, lines only the
// encoding/json fallback accepts, CRLF endings, blank lines, a complete
// final line without its newline — so Strict reads it through. dirty adds
// every kind of unusable line: garbage, an invalid record, a line past
// maxLineBytes (only with overlong: a megabyte per execution is too slow
// to fuzz) and a final line cut off mid-record.
func fragmentInputs(overlong bool) (clean, dirty string) {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `{"server":"s%d","class":"c","txn":%d,"hop":1,"arrive_us":%d,"depart_us":%d}`+"\n", i%3, i+1, 10*i, 10*i+7)
		switch i % 8 {
		case 1:
			b.WriteString("\n")
		case 3: // an escape: fallback only
			fmt.Fprintf(&b, `{"server":"s\u0031","arrive_us":%d,"depart_us":%d}`+"\r\n", 10*i, 10*i+1)
		case 5: // an unknown key and a newline-free blank: fallback only
			fmt.Fprintf(&b, ` { "server" : "s2", "extra": [1,2], "arrive_us":%d, "depart_us":%d } `+"\n  \t\r\n", 10*i, 10*i+2)
		}
	}
	head := b.String()
	clean = head + visitLine1

	b.WriteString("!!corrupt bytes{{\n")
	b.WriteString(visitLine1 + "\r\n")
	b.WriteString(`{"server":"s","arrive_us":9,"depart_us":1}` + "\n")
	if overlong {
		b.WriteString(`{"server":"` + strings.Repeat("x", maxLineBytes) + `","arrive_us":1,"depart_us":2}` + "\n")
	}
	b.WriteString(visitLine2 + "\n")
	b.WriteString(`{"arrive_us":1,"depart_us":2}` + "\n")
	b.WriteString(visitLine1 + "\n")
	b.WriteString(`{"server":"s","arr`)
	return clean, b.String()
}

// fragmentCases are the reads the property is checked over. The batch
// size is small so that the full-batch rule and the would-block rule both
// cut batches within one input.
func fragmentCases(overlong bool) []fragmentCase {
	clean, dirty := fragmentInputs(overlong)
	return []fragmentCase{
		{"clean/strict", clean, StreamOptions{Policy: Strict, BatchSize: 7}, ""},
		{"dirty/strict", dirty, StreamOptions{Policy: Strict, BatchSize: 7}, "traceio: line "},
		{"dirty/skip", dirty, StreamOptions{Policy: Skip, BatchSize: 7}, ""},
	}
}

type fragmentCase struct {
	name   string
	in     string
	opts   StreamOptions
	errHas string // what the read fails with; "" when it succeeds
}

// lenient is the same read with every bad line skipped: the records the
// input holds.
func (c fragmentCase) lenient() fragmentCase {
	c.opts = StreamOptions{Policy: Skip, BatchSize: c.opts.BatchSize}
	return c
}

// readOutcome is everything a caller can see of one read.
type readOutcome struct {
	visits []trace.Visit
	stats  string // Stats with the line errors rendered as text
	err    string
}

func (c fragmentCase) read(t testing.TB, r io.Reader) readOutcome {
	t.Helper()
	return c.readWith(t, r, StreamVisitsOpts)
}

// readParallel is read through StreamVisitsParallel on workers goroutines.
func (c fragmentCase) readParallel(t testing.TB, r io.Reader, workers int) readOutcome {
	t.Helper()
	return c.readWith(t, r, func(r io.Reader, opts StreamOptions, fn func([]trace.Visit) error) (Stats, error) {
		return StreamVisitsParallel(r, opts, workers, fn)
	})
}

func (c fragmentCase) readWith(t testing.TB, r io.Reader, read func(io.Reader, StreamOptions, func([]trace.Visit) error) (Stats, error)) readOutcome {
	t.Helper()
	var out readOutcome
	stats, err := read(r, c.opts, func(batch []trace.Visit) error {
		if len(batch) == 0 || len(batch) > c.opts.BatchSize {
			t.Errorf("%s: batch of %d records, want 1..%d", c.name, len(batch), c.opts.BatchSize)
		}
		out.visits = append(out.visits, batch...)
		return nil
	})
	out.stats = fmt.Sprintf("lines=%d decoded=%d malformed=%d invalid=%d", stats.Lines, stats.Decoded, stats.Malformed, stats.Invalid)
	for _, le := range stats.Errors {
		out.stats += fmt.Sprintf(" [%d: %v]", le.Line, le.Err)
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// checkAgainst holds a fragmented read to the unfragmented one: the same
// records in the same order, the same Stats, line numbers and error text.
// A read that fails hands over no record past the failure, but how many of
// the ones before it were already handed over depends on where the reads
// fell, so there the records must be a prefix of the ones a lenient read
// decodes.
func (c fragmentCase) checkAgainst(t testing.TB, how string, got, want, lenient readOutcome) {
	t.Helper()
	if got.stats != want.stats || got.err != want.err {
		t.Errorf("%s %s:\n got  %s | %s\n want %s | %s", c.name, how, got.stats, got.err, want.stats, want.err)
	}
	if want.err == "" {
		if !reflect.DeepEqual(got.visits, want.visits) {
			t.Errorf("%s %s: %d records differ from the unfragmented read's %d", c.name, how, len(got.visits), len(want.visits))
		}
		return
	}
	if len(got.visits) > len(lenient.visits) || !slices.Equal(got.visits, lenient.visits[:len(got.visits)]) {
		t.Errorf("%s %s: records handed over before the error are not a prefix of the input's", c.name, how)
	}
}

// chunkReader yields the input in pieces whose sizes next chooses.
type chunkReader struct {
	data []byte
	next func() int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(max(c.next(), 1), len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// TestStreamFragmentation: however the source fragments its reads, a
// caller sees the same records, Stats, line numbers and errors, in
// non-empty batches of at most BatchSize.
func TestStreamFragmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fragmenters := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data with EOF", iotest.DataErrReader},
		{"random small", func(r io.Reader) io.Reader {
			data, _ := io.ReadAll(r)
			return &chunkReader{data: data, next: func() int { return 1 + rng.Intn(200) }}
		}},
		{"random large", func(r io.Reader) io.Reader {
			data, _ := io.ReadAll(r)
			return &chunkReader{data: data, next: func() int { return 1 + rng.Intn(100<<10) }}
		}},
	}
	for _, c := range fragmentCases(true) {
		want := c.read(t, strings.NewReader(c.in))
		lenient := c.lenient().read(t, strings.NewReader(c.in))
		if (want.err == "") != (c.errHas == "") || !strings.Contains(want.err, c.errHas) {
			t.Fatalf("%s: unfragmented read fails with %q, want %q", c.name, want.err, c.errHas)
		}
		for _, f := range fragmenters {
			c.checkAgainst(t, f.name, c.read(t, f.wrap(strings.NewReader(c.in))), want, lenient)
		}
	}
}

// FuzzStreamFragmentation is the same property with the chunk boundaries
// taken from the fuzz input.
func FuzzStreamFragmentation(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{40, 1, 200, 3})
	f.Add([]byte{255, 255, 7})
	cases := fragmentCases(false)
	want := make([]readOutcome, len(cases))
	lenient := make([]readOutcome, len(cases))
	for i, c := range cases {
		want[i] = c.read(f, strings.NewReader(c.in))
		lenient[i] = c.lenient().read(f, strings.NewReader(c.in))
	}
	f.Fuzz(func(t *testing.T, cuts []byte) {
		if len(cuts) == 0 {
			return
		}
		for i, c := range cases {
			k := 0
			r := &chunkReader{data: []byte(c.in), next: func() int { k++; return int(cuts[k%len(cuts)]) + 1 }}
			c.checkAgainst(t, "fuzzed cuts", c.read(t, r), want[i], lenient[i])
		}
	})
}

// lineGate yields its chunks one Read at a time and fails the test when
// the decoder comes back for more while complete lines it was already
// given have not reached the callback.
type lineGate struct {
	t         *testing.T
	chunks    []string
	yielded   int // complete lines handed to the decoder so far
	delivered *int
}

func (g *lineGate) Read(p []byte) (int, error) {
	if *g.delivered != g.yielded {
		g.t.Errorf("Read with %d of %d complete lines delivered: a decoded record waited for input", *g.delivered, g.yielded)
	}
	if len(g.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.chunks[0])
	g.yielded += strings.Count(g.chunks[0][:n], "\n")
	if g.chunks[0] = g.chunks[0][n:]; g.chunks[0] == "" {
		g.chunks = g.chunks[1:]
	}
	return n, nil
}

// TestStreamDeliversBeforeBlocking pins the would-block rule directly:
// the source is never read while a complete line it has yielded is still
// undelivered, a read that completes no line causes no callback, and a
// full batch still goes out at once.
func TestStreamDeliversBeforeBlocking(t *testing.T) {
	line := func(i int) string {
		return fmt.Sprintf(`{"server":"s","arrive_us":%d,"depart_us":%d}`+"\n", i, i+1)
	}
	var all strings.Builder
	for i := 0; i < 12; i++ {
		all.WriteString(line(i))
	}
	s := all.String()
	l := len(line(0)) // lines 0..9 have the same length
	delivered := 0
	gate := &lineGate{t: t, delivered: &delivered, chunks: []string{
		s[:3*l],          // three lines
		s[3*l : 4*l],     // one
		s[4*l : 4*l+l/2], // half a line: nothing to deliver
		s[4*l+l/2 : 7*l], // its rest and two more
		s[7*l:],          // five: a full batch of four, then one
	}}
	var sizes []int
	if _, err := StreamVisitsOpts(gate, StreamOptions{BatchSize: 4}, func(batch []trace.Visit) error {
		sizes = append(sizes, len(batch))
		delivered += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 1, 3, 4, 1}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
}

// A callback failure at a would-block hand-off ends the read with that
// error verbatim, like one at a full batch, and the source is not read
// again.
func TestStreamCallbackErrorBeforeRead(t *testing.T) {
	reads := 0
	src := readerFunc(func(p []byte) (int, error) {
		reads++
		return copy(p, visitLine1+"\n"), nil
	})
	_, err := StreamVisitsOpts(src, StreamOptions{}, func([]trace.Visit) error { return io.ErrClosedPipe })
	if err != io.ErrClosedPipe || reads != 1 {
		t.Errorf("err %v after %d reads, want io.ErrClosedPipe after 1", err, reads)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
