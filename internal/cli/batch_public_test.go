package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"transientbd"
	"transientbd/internal/cause"
	"transientbd/internal/simnet"
	"transientbd/internal/traceio"
)

// TestBatchCLIMatchesPublicAnalyze pins the equality benchmark/setup.go
// builds its batch-file reference on: the same multi-server records give
// the same ranking rows and verdict lines through tbdetect -in (at any
// -parallel) and through the public Analyze. Both end in
// core.AnalyzeSystemGrouped; this fails tier-1 if they ever stop doing so.
func TestBatchCLIMatchesPublicAnalyze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "3000", "-duration", "10s", "-ramp", "3s", "-speedstep", "-seed", "7", "-out", path,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	rep, err := transientbd.Analyze(readRecords(t, path), transientbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranking) < 2 || len(rep.Causes) == 0 {
		t.Fatalf("scenario too quiet to compare: %d servers, %d verdicts", len(rep.Ranking), len(rep.Causes))
	}

	// Render the public report the way the CLI renders its own.
	var want []string
	for _, sa := range rep.Ranking {
		var congested time.Duration
		for _, e := range sa.Episodes {
			congested += e.Length
		}
		want = append(want, fmt.Sprintf("%-12s  %8.1f  %12.0f  %9.1f%%  %10d  %6d",
			sa.Server, sa.NStar, sa.TPMax, 100*sa.CongestedFraction, congested/sa.Interval, len(sa.POITimes)))
	}
	verdicts := make([]cause.Verdict, len(rep.Causes))
	for i, c := range rep.Causes {
		verdicts[i] = cause.Verdict{
			Kind: cause.Kind(c.Kind), Server: c.Server,
			Confidence: c.Confidence, Score: c.Score, Evidence: c.Evidence,
		}
	}
	var vb bytes.Buffer
	printVerdicts(&vb, verdicts)
	want = append(want, strings.Split(strings.TrimSpace(vb.String()), "\n")...)

	for _, parallel := range []string{"1", "0"} {
		var stdout, stderr bytes.Buffer
		if err := TBDetect([]string{"-in", path, "-parallel", parallel}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		// Ranking rows follow the header line; the verdict block runs from
		// its title to the end of the output.
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		var got []string
		for _, l := range lines[1:] {
			if l == "" {
				break
			}
			got = append(got, l)
		}
		for i, l := range lines {
			if strings.HasPrefix(l, "root-cause verdicts") {
				got = append(got, lines[i:]...)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("-parallel %s: CLI rows and verdicts differ from public Analyze:\n%s\nwant:\n%s",
				parallel, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestFollowCLIMatchesPublicStreamReestimates pins the N* re-estimation
// clock the two online surfaces share: on the same records at a 100 ms
// interval, tbdetect -follow and the public Stream, both on their
// default window and cadence, close the same intervals and re-estimate
// N* the same number of times.
func TestFollowCLIMatchesPublicStreamReestimates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "2000", "-duration", "45s", "-ramp", "3s", "-seed", "7", "-order", "depart", "-out", path,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := TBDetect([]string{
		"-in", path, "-follow", "-interval", "100ms", "-shards", "1", "-selfmetrics",
	}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	cliClosed := selfMetric(t, stderr.String(), "intervals closed")
	cliReest := selfMetric(t, stderr.String(), "nstar re-estimations")

	s, err := transientbd.NewStream(transientbd.StreamConfig{
		OnlineConfig: transientbd.OnlineConfig{Interval: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		for range s.Alerts() {
		}
		close(drained)
	}()
	for _, r := range readRecords(t, path) {
		if err := s.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	<-drained
	m := s.Metrics()
	if m.IntervalsClosed != cliClosed {
		t.Fatalf("intervals closed: Stream %d, tbdetect -follow %d", m.IntervalsClosed, cliClosed)
	}
	if m.Reestimates == 0 || m.Reestimates != cliReest {
		t.Errorf("N* re-estimations: Stream %d, tbdetect -follow %d", m.Reestimates, cliReest)
	}
}

// selfMetric reads one counter from a -selfmetrics block.
func selfMetric(t *testing.T, block, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(block, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), name); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("self-metric %q: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("no %q in the self-metrics block:\n%s", name, block)
	return 0
}

// readRecords reads a visit JSONL file as public Records.
func readRecords(t *testing.T, path string) []transientbd.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	visits, err := traceio.ReadVisits(f)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]transientbd.Record, len(visits))
	for i, v := range visits {
		recs[i] = transientbd.Record{
			Server: v.Server, Class: v.Class,
			Arrive: simnet.Std(simnet.Duration(v.Arrive)), Depart: simnet.Std(simnet.Duration(v.Depart)),
			DownstreamWait: simnet.Std(v.Downstream),
			TxnID:          v.TxnID, HopID: v.HopID,
		}
	}
	return recs
}
