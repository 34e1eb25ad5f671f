package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// multiBatchTrace simulates a visit trace of more than four decode batches
// whose busiest servers cross the per-server grouping chunk several times,
// and writes it to dir. It returns the file's path and its lines.
func multiBatchTrace(t *testing.T, dir string) (string, []string) {
	t.Helper()
	path := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "3000", "-duration", "8s", "-ramp", "1s", "-speedstep", "-seed", "3", "-out", path,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4*traceio.DefaultBatch {
		t.Fatalf("trace has %d lines, want at least %d", len(lines), 4*traceio.DefaultBatch)
	}
	return path, lines
}

func stdoutDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTBDetectMultiBatchDigest pins tbdetect -in's stdout (ranking rows
// and verdicts) on a trace spanning many decode batches, and what a
// malformed line near its end does under each policy, so a change to how
// -in reads and groups the trace cannot move a byte.
func TestTBDetectMultiBatchDigest(t *testing.T) {
	const (
		cleanDigest   = "9011e33427e0144894ec94d2178514f679cc177d94d68a70539cd43049a9c6a1"
		lenientDigest = "dd3245a63ff3190c187a588f08eca49347ff8efc8d91b9d273cff4807347d63e"
		badLine       = `{"server":"mysql-1","arrive_us":12`
	)
	dir := t.TempDir()
	path, lines := multiBatchTrace(t, dir)

	var out, errBuf bytes.Buffer
	if err := TBDetect([]string{"-in", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if got := stdoutDigest(out.Bytes()); got != cleanDigest {
		t.Errorf("stdout digest %s, want %s:\n%s", got, cleanDigest, out.String())
	}

	n := len(lines) - 7 // 1-based number of the replaced line
	lines[n-1] = badLine
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err := TBDetect([]string{"-in", corrupt}, &out, &errBuf)
	want := "traceio: line " + strconv.Itoa(n) + ": decode visit: unexpected end of JSON input"
	if err == nil || err.Error() != want {
		t.Errorf("strict error %v, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("strict run printed to stdout:\n%s", out.String())
	}

	out.Reset()
	if err := TBDetect([]string{"-in", corrupt, "-lenient", "-quality"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`lines read / skipped\s+\d+ / 1\n`).Match(out.Bytes()) {
		t.Errorf("quality block does not report exactly 1 skipped line:\n%s", out.String())
	}
	if got := stdoutDigest(out.Bytes()); got != lenientDigest {
		t.Errorf("lenient stdout digest %s, want %s:\n%s", got, lenientDigest, out.String())
	}
}

// visitJSONL is n synthetic visits over six servers, unevenly spread, as
// JSONL, with the given lines replaced by a malformed one.
func visitJSONL(t testing.TB, n int, bad ...int) []byte {
	t.Helper()
	servers := []string{"apache", "tomcat-1", "tomcat-2", "cjdbc", "mysql-1", "mysql-2"}
	visits := make([]trace.Visit, n)
	for i := range visits {
		at := simnet.Time(i) * 50 * simnet.Microsecond
		visits[i] = trace.Visit{
			Server: servers[(i*i+i/3)%13%len(servers)], Class: "q", TxnID: int64(i/4 + 1), HopID: int64(i + 1),
			Arrive: at, Depart: at + simnet.Time(100+i%900)*simnet.Microsecond,
		}
	}
	var b bytes.Buffer
	if err := traceio.WriteVisits(&b, visits); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(b.String(), "\n")
	for _, i := range bad {
		lines[i] = "{not json\n"
	}
	return []byte(strings.Join(lines, ""))
}

// collect reads src with read and returns every visit handed over, in
// order.
func collect(src io.Reader, opts traceio.StreamOptions, read func(io.Reader, traceio.StreamOptions, func([]trace.Visit) error) (traceio.Stats, error)) ([]trace.Visit, traceio.Stats, error) {
	var visits []trace.Visit
	stats, err := read(src, opts, func(batch []trace.Visit) error {
		visits = append(visits, batch...)
		return nil
	})
	return visits, stats, err
}

// parallel is traceio.StreamVisitsParallel at the given worker count.
func parallel(workers int) func(io.Reader, traceio.StreamOptions, func([]trace.Visit) error) (traceio.Stats, error) {
	return func(r io.Reader, opts traceio.StreamOptions, fn func([]trace.Visit) error) (traceio.Stats, error) {
		return traceio.StreamVisitsParallel(r, opts, workers, fn)
	}
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// goroutine that has closed its last channel may still be on its way out.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestDecodeAheadMatchesStreamVisits holds the parallel reader tbdetect
// -in decodes with to StreamVisitsOpts on inputs of many blocks: the same
// visits in the same order, Stats and error, and no goroutine left. A
// read that fails hands over a prefix of the input's visits.
func TestDecodeAheadMatchesStreamVisits(t *testing.T) {
	n := 5*traceio.DefaultBatch + 123
	clean := visitJSONL(t, n)
	errSource := errors.New("source failed")
	cases := []struct {
		name string
		data []byte
		opts traceio.StreamOptions
		cut  int // > 0: the source fails after this many bytes of data
	}{
		{"default batches", clean, traceio.StreamOptions{}, 0},
		{"small batches", clean, traceio.StreamOptions{BatchSize: 1000}, 0},
		{"skip bad lines", visitJSONL(t, n, 7, 9000, n-2), traceio.StreamOptions{Policy: traceio.Skip}, 0},
		{"strict bad line", visitJSONL(t, n, 3*traceio.DefaultBatch+5), traceio.StreamOptions{}, 0},
		{"source error", clean, traceio.StreamOptions{Policy: traceio.Skip}, bytes.LastIndexByte(clean[:len(clean)*3/4], '\n') + 1},
	}
	for _, c := range cases {
		source := func() io.Reader {
			if c.cut > 0 {
				return io.MultiReader(bytes.NewReader(c.data[:c.cut]), iotest.ErrReader(errSource))
			}
			return bytes.NewReader(c.data)
		}
		all, _, _ := collect(bytes.NewReader(c.data), traceio.StreamOptions{Policy: traceio.Skip}, traceio.StreamVisitsOpts)
		want, wantStats, wantErr := collect(source(), c.opts, traceio.StreamVisitsOpts)
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					base := runtime.NumGoroutine()
					got, gotStats, gotErr := collect(source(), c.opts, parallel(workers))
					waitGoroutines(t, base, "after the read")
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("error %v, want %v", gotErr, wantErr)
					}
					if c.cut > 0 && !errors.Is(gotErr, errSource) {
						t.Errorf("error %v does not wrap the source's", gotErr)
					}
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Errorf("stats %+v, want %+v", gotStats, wantStats)
					}
					if wantErr != nil {
						if len(got) > len(all) || !slices.Equal(got, all[:len(got)]) {
							t.Errorf("the %d visits handed over before the error are not a prefix of the input's", len(got))
						}
						return
					}
					if len(want) < 3*traceio.DefaultBatch {
						t.Fatalf("only %d visits decoded", len(want))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d visits differ from StreamVisitsOpts' %d, in order", len(got), len(want))
					}
				})
			}
		})
	}
}

func TestDecodeAheadConsumerError(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	calls := 0
	_, err := traceio.StreamVisitsParallel(bytes.NewReader(visitJSONL(t, 20*traceio.DefaultBatch)), traceio.StreamOptions{BatchSize: 100}, 0,
		func([]trace.Visit) error {
			if calls++; calls == 2 {
				return boom
			}
			return nil
		})
	if err != boom {
		t.Fatalf("error %v, want the consumer's %v", err, boom)
	}
	if calls != 2 {
		t.Errorf("consumer called %d times, want 2: none after it failed", calls)
	}
	waitGoroutines(t, base, "after the consumer failed")
}

// BenchmarkIngestVisits times what strict tbdetect -in does before its
// analysis: decode, group per server, latest departure and call graph,
// with one decode worker and with GOMAXPROCS.
func BenchmarkIngestVisits(b *testing.B) {
	data := visitJSONL(b, 200_000)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for range b.N {
				if _, _, _, err := readVisits(bytes.NewReader(data), traceio.StreamOptions{}, workers, &core.TraceQuality{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*200_000), "ns/record")
		})
	}
}

// TestTBDetectWindowEndsAtLastDeparture pins tbdetect -in's default
// window end: the latest departure + 1 µs. The trace's last visit arrives
// at the latest departure before it and departs 260 ms later, five
// intervals on, so every server's CONGESTED column differs between a
// window ending at that departure and one ending at the latest arrival.
func TestTBDetectWindowEndsAtLastDeparture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "3000", "-duration", "6s", "-ramp", "1s", "-speedstep", "-seed", "5", "-out", path,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	read := func() []trace.Visit {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		vs, err := traceio.ReadVisits(f)
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	var lastDepart simnet.Time
	for _, v := range read() {
		lastDepart = max(lastDepart, v.Depart)
	}
	tail := trace.Visit{Server: "apache", Class: "tail", TxnID: 1 << 40, HopID: 1 << 40,
		Arrive: lastDepart, Depart: lastDepart + 260*simnet.Millisecond}
	var line bytes.Buffer
	if err := traceio.WriteVisits(&line, []trace.Visit{tail}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	congested := func(end simnet.Time) map[string]string {
		sys, err := core.AnalyzeSystemGrouped(trace.PerServer(read()), core.Window{End: end + 1},
			core.Options{Interval: 50 * simnet.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, r := range sys.Ranking {
			out[r.Server] = fmt.Sprintf("%.1f%%", 100*r.CongestedFraction)
		}
		return out
	}
	want, atArrival := congested(tail.Depart), congested(tail.Arrive)
	if reflect.DeepEqual(want, atArrival) {
		t.Fatalf("the window end moves no CONGESTED column (%v): the trace cannot tell the ends apart", want)
	}

	var out, errBuf bytes.Buffer
	if err := TBDetect([]string{"-in", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, row := range strings.Split(out.String(), "\n")[1:] {
		fields := strings.Fields(row)
		if len(fields) != 6 {
			break
		}
		got[fields[0]] = fields[3]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CONGESTED column %v, want %v for a window ending at the last departure (%v ending at the last arrival):\n%s",
			got, want, atArrival, out.String())
	}
}
