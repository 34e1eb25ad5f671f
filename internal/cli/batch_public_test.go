package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	rep, err := transientbd.Analyze(recs, transientbd.Config{})
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
