package transientbd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transientbd/internal/simnet"
	"transientbd/internal/traceio"
)

// The golden-report regression test: examples/golden/trace.jsonl is a
// canned three-tier trace (steady background load plus three bursts at
// the app tier, the last a freeze) and report.json is the full Report the
// pipeline must produce for it, diffed byte-for-byte. Any change to load
// accounting, N* estimation, classification or ranking shows up as a
// golden diff — making estimator drift a deliberate, reviewed update
// instead of a silent one:
//
//	go test -run TestGoldenReport -update .
var updateGolden = flag.Bool("update", false, "rewrite the golden files under examples/golden from the current pipeline output")

// goldenConfig pins every default the report depends on, so the golden
// file does not shift when defaults evolve — that kind of change should
// show up as an explicit config edit here plus a golden update.
func goldenConfig() Config {
	return Config{
		Interval:    50 * time.Millisecond,
		Bins:        100,
		TolFraction: 0.2,
		POIFraction: 0.2,
		ServiceTimes: map[string]time.Duration{
			"small": 20 * time.Millisecond,
			"mid":   40 * time.Millisecond,
			"big":   80 * time.Millisecond,
		},
		Parallelism: 1,
	}
}

func TestGoldenReport(t *testing.T) {
	tracePath := filepath.Join("examples", "golden", "trace.jsonl")
	reportPath := filepath.Join("examples", "golden", "report.json")

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("open golden trace: %v", err)
	}
	defer f.Close()
	visits, err := traceio.ReadVisits(f)
	if err != nil {
		t.Fatalf("read golden trace: %v", err)
	}
	records := make([]Record, len(visits))
	for i, v := range visits {
		records[i] = Record{
			Server:         v.Server,
			Class:          v.Class,
			Arrive:         simnet.Std(simnet.Duration(v.Arrive)),
			Depart:         simnet.Std(simnet.Duration(v.Depart)),
			DownstreamWait: simnet.Std(v.Downstream),
		}
	}

	report, err := Analyze(records, goldenConfig())
	if err != nil {
		t.Fatalf("analyze golden trace: %v", err)
	}
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.WriteFile(reportPath, got, 0o644); err != nil {
			t.Fatalf("update golden report: %v", err)
		}
		t.Logf("golden report rewritten: %s (%d bytes)", reportPath, len(got))
		return
	}

	want, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("read golden report (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("report diverges from golden at line ~%d (got %d bytes, want %d).\n"+
			"If the change is intentional, rerun with: go test -run TestGoldenReport -update .",
			line, len(got), len(want))
	}
}

// The scenario golden: the conn-pool battery scenario run end to end —
// simulate, analyze, attribute — with the ground-truth labels and the
// full Report (verdicts included) pinned by the SHA-256 of their indented
// JSON. The digest catches any drift, however small; the committed
// summary beside it (causes, verdicts, ranking) is what a reviewer reads
// when the digest moves. This is the regression net for the attribution
// engine:
//
//	go test -run TestGoldenScenarioReport -update .
func TestGoldenScenarioReport(t *testing.T) {
	digestPath := filepath.Join("examples", "golden", "scenario_connpool.sha256")
	summaryPath := filepath.Join("examples", "golden", "scenario_connpool.txt")

	res, report, err := AnalyzeScenario(Scenario{
		Preset:   "conn-pool",
		Duration: 30 * time.Second,
		Ramp:     5 * time.Second,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("run conn-pool scenario: %v", err)
	}
	if len(report.Causes) == 0 || report.Causes[0].Kind != "conn-pool-exhaustion" {
		t.Fatalf("top verdict = %+v, want conn-pool-exhaustion", report.Causes)
	}

	full, err := json.MarshalIndent(struct {
		GroundTruth []GroundTruthRecord
		Report      *Report
	}{res.GroundTruth, report}, "", "  ")
	if err != nil {
		t.Fatalf("marshal scenario report: %v", err)
	}
	sum := sha256.Sum256(append(full, '\n'))
	digest := hex.EncodeToString(sum[:]) + "\n"
	summary := scenarioSummary(res.GroundTruth, report)

	if *updateGolden {
		if err := os.WriteFile(digestPath, []byte(digest), 0o644); err != nil {
			t.Fatalf("update scenario digest: %v", err)
		}
		if err := os.WriteFile(summaryPath, []byte(summary), 0o644); err != nil {
			t.Fatalf("update scenario summary: %v", err)
		}
		t.Logf("scenario golden rewritten: %s, %s", digestPath, summaryPath)
		return
	}

	const rerun = "If the change is intentional, rerun with: go test -run TestGoldenScenarioReport -update ."
	wantSummary, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatalf("read scenario summary (run with -update to create it): %v", err)
	}
	if summary != string(wantSummary) {
		t.Fatalf("scenario summary diverges from golden.\ngot:\n%s\nwant:\n%s\n%s", summary, wantSummary, rerun)
	}
	wantDigest, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("read scenario digest (run with -update to create it): %v", err)
	}
	if digest != string(wantDigest) {
		t.Fatalf("scenario report digest %s, want %s: the summary holds, so the drift is in "+
			"evidence text, series values or unprinted digits.\n%s",
			strings.TrimSpace(digest), strings.TrimSpace(string(wantDigest)), rerun)
	}
}

// scenarioSummary renders the reviewable part of the scenario golden:
// each ground-truth injection, each verdict, and each ranking row.
func scenarioSummary(truth []GroundTruthRecord, r *Report) string {
	var b strings.Builder
	b.WriteString("ground truth (cause, servers, windows)\n")
	for _, g := range truth {
		fmt.Fprintf(&b, "  %s %s", g.Cause, strings.Join(g.Servers, ","))
		for _, w := range g.Windows {
			fmt.Fprintf(&b, " %v-%v", w.Start, w.End)
		}
		b.WriteString("\n")
	}
	b.WriteString("verdicts (kind, server, score, confidence)\n")
	for _, c := range r.Causes {
		fmt.Fprintf(&b, "  %s %s %.4f %.4f\n", c.Kind, c.Server, c.Score, c.Confidence)
	}
	b.WriteString("ranking (server, N*, TPmax, saturated, congested, episodes, POIs)\n")
	for _, sa := range r.Ranking {
		fmt.Fprintf(&b, "  %s %.3f %.1f %t %.4f %d %d\n", sa.Server, sa.NStar, sa.TPMax,
			sa.Saturated, sa.CongestedFraction, len(sa.Episodes), len(sa.POITimes))
	}
	return b.String()
}
