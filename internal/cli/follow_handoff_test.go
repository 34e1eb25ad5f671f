package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/traceio"
)

// liveBuffer is a stdout the test can read while runFollow writes it.
type liveBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	changed chan struct{} // one token per burst of writes
}

func newLiveBuffer() *liveBuffer { return &liveBuffer{changed: make(chan struct{}, 1)} }

func (b *liveBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.changed <- struct{}{}:
	default:
	}
	return b.buf.Write(p)
}

func (b *liveBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor blocks until ok accepts the output so far, failing the test
// after timeout.
func (b *liveBuffer) waitFor(t *testing.T, what string, timeout time.Duration, ok func(string) bool) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if s := b.String(); ok(s) {
			return s
		}
		select {
		case <-b.changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %s; output so far:\n%s", what, b.String())
		}
	}
}

// followRef is what an in-process stream.Runtime at one shard makes of a
// trace: the reference runFollow's stdout is held to.
type followRef struct {
	lines    [][]byte // the feed, one JSONL line each
	triggers []barrierTrigger
	alerts   []string // ALERT lines, in order
	stdout   string   // the whole expected stdout
}

// barrierTrigger is a record whose observation broadcast a barrier: its
// position in the feed, the watermark it moved the runtime to, and how
// many ALERT lines are due once it has been observed.
type barrierTrigger struct {
	index     int
	mark      simnet.Time
	alertsDue int
}

func alertLines(s string) []string {
	var out []string
	for _, l := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(l, "ALERT ") {
			out = append(out, l)
		}
	}
	return out
}

func followReference(t *testing.T, tracePath string, opts followOpts) *followRef {
	t.Helper()
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	visits, err := traceio.ReadVisits(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ref := &followRef{lines: bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))}
	ref.lines[len(ref.lines)-1] = append(ref.lines[len(ref.lines)-1], '\n')
	if len(ref.lines) != len(visits) {
		t.Fatalf("%d lines but %d visits", len(ref.lines), len(visits))
	}

	opts.shards = 1
	cfg, err := opts.streamConfig()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []stream.Alert
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range rt.Alerts() {
			got = append(got, a)
		}
	}()
	for i, v := range visits {
		next := rt.NextBarrier()
		if err := rt.Observe(v); err != nil {
			t.Fatal(err)
		}
		if v.Depart >= next {
			ref.triggers = append(ref.triggers, barrierTrigger{index: i, mark: rt.Metrics().Watermark})
		}
	}
	snap := rt.Close()
	<-done

	ch := make(chan stream.Alert, len(got))
	for _, a := range got {
		ch <- a
	}
	close(ch)
	var out bytes.Buffer
	alerts, freezes := printAlerts(&out, nil, ch)
	ref.alerts = alertLines(out.String())
	fmt.Fprintf(&out, "\nfollow: %d congestion alerts (%d freezes) from %d closed intervals\n",
		alerts, freezes, snap.Metrics.IntervalsClosed)
	printFinalSnapshot(&out, snap, opts.window, opts.top)
	ref.stdout = out.String()

	for k := range ref.triggers {
		for _, a := range got {
			if a.State == core.StateCongested && a.At < ref.triggers[k].mark {
				ref.triggers[k].alertsDue++
			}
		}
	}
	return ref
}

func (ref *followRef) bytes(from, to int) []byte { return bytes.Join(ref.lines[from:to], nil) }

func handoffOpts() followOpts {
	return followOpts{
		detectFlags: detectFlags{
			interval: 50 * time.Millisecond,
			window:   2 * time.Minute,
			flushLag: time.Second,
		},
	}
}

// TestFollowAlertsDoNotWaitForInput: the feed stops right after the
// record that triggers a barrier — the pipe stays open, nothing more
// comes. The alerts that barrier closed must be on stdout while the
// writer is stalled (they used to wait for the 8192nd line), and the
// complete run must match the in-process runtime line for line at one and
// two shards.
func TestFollowAlertsDoNotWaitForInput(t *testing.T) {
	ref := followReference(t, genTrace(t), handoffOpts())
	// The first barrier that has alerts to show, early enough that the
	// old hand-off would not have reached it.
	var stallAfter, due int
	for _, tr := range ref.triggers {
		if tr.alertsDue > 0 {
			stallAfter, due = tr.index, tr.alertsDue
			break
		}
	}
	if due == 0 {
		t.Fatal("no barrier of the reference run closes a congested interval")
	}
	if rest := len(ref.lines) - stallAfter - 1; rest < 1000 {
		t.Fatalf("only %d lines after the stall point", rest)
	}

	for _, shards := range []int{1, 2} {
		opts := handoffOpts()
		opts.shards = shards
		pr, pw := io.Pipe()
		stdout := newLiveBuffer()
		var stderr bytes.Buffer
		runDone := make(chan error, 1)
		go func() {
			err := runFollow(pr, stdout, &stderr, opts)
			pr.Close() // a failed run must not leave the writes below blocked
			runDone <- err
		}()

		if _, err := pw.Write(ref.bytes(0, stallAfter+1)); err != nil {
			t.Fatal(err)
		}
		got := stdout.waitFor(t, fmt.Sprintf("%d alerts with the feed stalled after line %d (shards %d)", due, stallAfter+1, shards),
			30*time.Second, func(s string) bool { return strings.Count(s, "ALERT ") >= due })
		if want := strings.Join(ref.alerts[:due], ""); got != want {
			t.Errorf("shards %d: stalled output\n%s\nwant\n%s", shards, got, want)
		}

		if _, err := pw.Write(ref.bytes(stallAfter+1, len(ref.lines))); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatalf("shards %d: runFollow: %v\n%s", shards, err, stderr.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("shards %d: runFollow did not return after EOF", shards)
		}
		if got := stdout.String(); got != ref.stdout {
			t.Errorf("shards %d: output differs from the in-process runtime's:\n%s\nwant\n%s", shards, got, ref.stdout)
		}
	}
}

// TestFollowReportCarriesLastHandoff: /report is published after the
// records of a hand-off are observed, not before, so when a burst is
// followed by silence the snapshot on /report already holds the intervals
// that burst closed.
func TestFollowReportCarriesLastHandoff(t *testing.T) {
	ref := followReference(t, genTrace(t), handoffOpts())
	first := ref.triggers[0]

	opts := handoffOpts()
	opts.shards = 2
	opts.listen = "127.0.0.1:0"
	opts.publishEvery = time.Nanosecond // due at every hand-off
	addrCh := make(chan string, 1)
	opts.listenReady = func(addr string) { addrCh <- addr }
	pr, pw := io.Pipe()
	var stdout, stderr bytes.Buffer
	runDone := make(chan error, 1)
	go func() {
		err := runFollow(pr, &stdout, &stderr, opts)
		pr.Close()
		runDone <- err
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-runDone:
		t.Fatalf("runFollow exited before listening: %v\n%s", err, stderr.String())
	}

	if _, err := pw.Write(ref.bytes(0, first.index+1)); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`"watermark_us": %d,`, int64(first.mark))
	pollUntil(t, "/report at the watermark of the last hand-off ("+want+")", 10*time.Second, func() bool {
		_, body := httpGetBody(t, base+"/report")
		return strings.Contains(body, want)
	})

	pw.Close()
	if err := <-runDone; err != nil {
		t.Fatalf("runFollow: %v\n%s", err, stderr.String())
	}
}

var skippingRE = regexp.MustCompile(`skipping (\d+) already-incorporated records`)

// TestFollowStopHonouredAtNextRead: the stop signal is seen at the next
// read, not 8192 lines later. The feed runs a few hundred lines past a
// barrier trigger (those lines are received and held), stop is closed and
// exactly one more line is written: runFollow must shut down gracefully
// without further input. What was held is neither observed nor counted —
// the checkpoint's cursor is the trigger record — so a -resume run picks
// the feed up exactly there and accounts for every record once.
func TestFollowStopHonouredAtNextRead(t *testing.T) {
	tracePath := genTrace(t)
	ref := followReference(t, tracePath, handoffOpts())
	const heldLines = 300
	var at, due int // the trigger to stop after
	for k, tr := range ref.triggers {
		if tr.alertsDue > 0 && k+1 < len(ref.triggers) && ref.triggers[k+1].index > tr.index+heldLines+1 {
			at, due = tr.index, tr.alertsDue
			break
		}
	}
	if due == 0 {
		t.Fatal("no barrier of the reference run fits the scenario")
	}

	// stopped runs the feed through line `lines`, waits for the alerts of
	// the barrier at `at`, stops, writes one more line, and returns the
	// checkpoint directory and the stopped run's stdout.
	stopped := func(lines int) (ckptDir, out string) {
		ckptDir = filepath.Join(t.TempDir(), "ckpt")
		opts := handoffOpts()
		opts.shards = 2
		opts.checkpointDir = ckptDir
		opts.ckptEvery = 10 * time.Second
		stop := make(chan struct{})
		opts.stop = stop
		pr, pw := io.Pipe()
		stdout := newLiveBuffer()
		var stderr bytes.Buffer
		runDone := make(chan error, 1)
		go func() {
			err := runFollow(pr, stdout, &stderr, opts)
			pr.Close()
			runDone <- err
		}()

		if _, err := pw.Write(ref.bytes(0, lines)); err != nil {
			t.Fatal(err)
		}
		stdout.waitFor(t, "the alerts before the stop", 30*time.Second,
			func(s string) bool { return strings.Count(s, "ALERT ") >= due })
		close(stop)
		// One more line is all it takes. (The write fails instead when the
		// run saw the signal at the hand-off of the lines before it.)
		pw.Write(ref.bytes(lines, lines+1)) //nolint:errcheck
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatalf("graceful stop must exit cleanly, got %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("runFollow did not stop at the read after the signal")
		}
		if !strings.Contains(stderr.String(), "interrupted") {
			t.Errorf("no interruption notice on stderr:\n%s", stderr.String())
		}
		out = stdout.String()
		if !strings.Contains(out, "closed intervals") || !strings.Contains(out, "final snapshot") {
			t.Errorf("no shutdown summary on stdout:\n%s", out)
		}
		return ckptDir, out
	}
	resume := func(ckptDir string) (stdout, stderr string) {
		var out, errOut bytes.Buffer
		if err := TBDetect([]string{
			"-in", tracePath, "-follow", "-shards", "2", "-checkpoint", ckptDir, "-resume", "-selfmetrics",
		}, &out, &errOut); err != nil {
			t.Fatalf("resume: %v\n%s", err, errOut.String())
		}
		return out.String(), errOut.String()
	}

	heldDir, heldOut := stopped(at + 1 + heldLines)
	out, errOut := resume(heldDir)
	m := skippingRE.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("resume run did not restore the stop-time checkpoint:\n%s", errOut)
	}
	if cursor, _ := strconv.Atoi(m[1]); cursor != at+1 {
		t.Errorf("resume cursor %d, want %d: the %d held records must not count", cursor, at+1, heldLines)
	}
	if want := fmt.Sprintf("records ingested       %d\n", len(ref.lines)); !strings.Contains(errOut, want) {
		t.Errorf("stop and resume together did not ingest each of the %d records once:\n%s", len(ref.lines), errOut)
	}

	// No alert is lost or repeated across the stop: the stopped run's
	// ALERT lines followed by the resumed run's are the uninterrupted
	// run's. (The final window is not — a graceful stop seals its open
	// intervals early, whatever the hand-off rule.)
	if got := strings.Join(append(alertLines(heldOut), alertLines(out)...), ""); got != strings.Join(ref.alerts, "") {
		t.Errorf("alerts of the stopped and resumed runs differ from an uninterrupted run's:\n%s\nwant\n%s", got, strings.Join(ref.alerts, ""))
	}

	// The same stop with nothing held — the feed ends on the trigger
	// record — must leave the same state behind: identical output from
	// the stopped run and from its resume.
	bareDir, bareOut := stopped(at + 1)
	if heldOut != bareOut {
		t.Errorf("held records changed the stopped run's output:\n%s\nwant\n%s", heldOut, bareOut)
	}
	if bare, _ := resume(bareDir); out != bare {
		t.Errorf("held records changed the resumed run's output:\n%s\nwant\n%s", out, bare)
	}
}
