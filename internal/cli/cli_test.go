package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestNtierSimWritesTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var stdout, stderr bytes.Buffer
	err := NtierSim([]string{
		"-users", "200",
		"-duration", "10s",
		"-ramp", "3s",
		"-seed", "7",
		"-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trace file")
	}
	if !strings.Contains(stderr.String(), "pages/s") {
		t.Errorf("summary missing: %q", stderr.String())
	}
	if !strings.Contains(string(data[:200]), `"server"`) {
		t.Errorf("trace not JSONL: %q", string(data[:200]))
	}
}

func TestNtierSimStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := NtierSim([]string{
		"-users", "50", "-duration", "5s", "-ramp", "2s", "-out", "-",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 {
		t.Error("no JSONL on stdout")
	}
}

func TestNtierSimMessagesOutput(t *testing.T) {
	dir := t.TempDir()
	msgs := filepath.Join(dir, "messages.jsonl")
	var stdout, stderr bytes.Buffer
	err := NtierSim([]string{
		"-users", "50", "-duration", "5s", "-ramp", "2s",
		"-out", filepath.Join(dir, "v.jsonl"),
		"-messages", msgs,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data[:200]), `"dir"`) {
		t.Error("message JSONL missing direction field")
	}
}

func TestNtierSimBadCollector(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := NtierSim([]string{"-collector", "zzz"}, &stdout, &stderr)
	if err == nil {
		t.Error("want error for unknown collector")
	}
}

func TestNtierSimCollectorVariants(t *testing.T) {
	for _, col := range []string{"none", "serial", "concurrent"} {
		var stdout, stderr bytes.Buffer
		err := NtierSim([]string{
			"-users", "50", "-duration", "3s", "-ramp", "1s",
			"-collector", col, "-out", filepath.Join(t.TempDir(), "v.jsonl"),
		}, &stdout, &stderr)
		if err != nil {
			t.Errorf("collector %s: %v", col, err)
		}
	}
}

func TestPipelineSimThenDetect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	err := NtierSim([]string{
		"-users", "3000",
		"-duration", "15s",
		"-ramp", "5s",
		"-seed", "3",
		"-out", out,
	}, &simOut, &simErr)
	if err != nil {
		t.Fatal(err)
	}
	var detOut, detErr bytes.Buffer
	err = TBDetect([]string{"-in", out}, &detOut, &detErr)
	if err != nil {
		t.Fatal(err)
	}
	report := detOut.String()
	for _, server := range []string{"apache", "tomcat-1", "mysql-1", "cjdbc"} {
		if !strings.Contains(report, server) {
			t.Errorf("report missing %s:\n%s", server, report)
		}
	}
	if !strings.Contains(report, "N*") {
		t.Errorf("report missing header:\n%s", report)
	}
}

func TestTBDetectWindowAndTopFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "500", "-duration", "10s", "-ramp", "3s", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var detOut, detErr bytes.Buffer
	err := TBDetect([]string{"-in", out, "-from", "3s", "-to", "13s", "-top", "2", "-raw"}, &detOut, &detErr)
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 rows + blank + verdict.
	lines := strings.Split(strings.TrimSpace(detOut.String()), "\n")
	dataRows := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "apache") || strings.HasPrefix(l, "tomcat") ||
			strings.HasPrefix(l, "mysql") || strings.HasPrefix(l, "cjdbc") {
			dataRows++
		}
	}
	if dataRows != 2 {
		t.Errorf("top=2 printed %d rows:\n%s", dataRows, detOut.String())
	}
	// A window that starts after the trace ends says so.
	err = TBDetect([]string{"-in", out, "-from", "30s"}, &detOut, &detErr)
	if err == nil || !strings.Contains(err.Error(), "-from 30s is at or after the trace's last departure") {
		t.Errorf("-from past the end: err = %v, want it named", err)
	}
}

func TestTBDetectMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := TBDetect([]string{"-in", "/nonexistent/x.jsonl"}, &stdout, &stderr); err == nil {
		t.Error("want error for missing file")
	}
}

func TestTBDetectEmptyTrace(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := TBDetect([]string{"-in", empty}, &stdout, &stderr); err != nil {
		t.Fatalf("empty trace should exit cleanly, got %v", err)
	}
	if !strings.Contains(stdout.String(), "no visits") {
		t.Errorf("missing no-visits notice, got %q", stdout.String())
	}
}

func TestExperimentsList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := Experiments([]string{"list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig2", "fig9-11", "tableII"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestExperimentsRunDeterministic(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := Experiments([]string{"run", "fig7"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "normalization") {
		t.Errorf("fig7 output: %q", stdout.String())
	}
}

func TestExperimentsErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := Experiments(nil, &stdout, &stderr); err == nil {
		t.Error("want usage error")
	}
	for _, sub := range []string{"bogus", "bench"} {
		err := Experiments([]string{sub}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "(list|run)") {
			t.Errorf("%s: want unknown-subcommand error listing list|run, got %v", sub, err)
		}
	}
	if err := Experiments([]string{"run"}, &stdout, &stderr); err == nil {
		t.Error("want missing-id error")
	}
	if err := Experiments([]string{"run", "nosuch"}, &stdout, &stderr); err == nil {
		t.Error("want unknown-id error")
	}
}

func TestTBDetectWireInput(t *testing.T) {
	dir := t.TempDir()
	msgs := filepath.Join(dir, "messages.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "500", "-duration", "10s", "-ramp", "3s",
		"-out", filepath.Join(dir, "v.jsonl"),
		"-messages", msgs,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	// Oracle assembly from the wire capture.
	var detOut, detErr bytes.Buffer
	if err := TBDetect([]string{"-in", msgs, "-wire"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detOut.String(), "mysql-1") {
		t.Errorf("wire-mode report missing servers:\n%s", detOut.String())
	}
	// Black-box reconstruction path reports its accuracy.
	detOut.Reset()
	detErr.Reset()
	if err := TBDetect([]string{"-in", msgs, "-wire", "-blackbox"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detErr.String(), "accuracy") {
		t.Errorf("black-box mode did not report accuracy: %q", detErr.String())
	}
	if !strings.Contains(detOut.String(), "mysql-1") {
		t.Errorf("black-box report missing servers:\n%s", detOut.String())
	}
}

// TestTBDetectBlackBoxQualityCountsUnmatched cuts a wire capture at both
// ends, so it holds returns whose calls were never captured and calls
// still unanswered at the end. The black-box -quality block must count
// both, as the unmatched calls the reconstruction reports on stderr.
func TestTBDetectBlackBoxQualityCountsUnmatched(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "messages.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "500", "-duration", "10s", "-ramp", "3s", "-seed", "1",
		"-out", filepath.Join(dir, "v.jsonl"), "-messages", full,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	cut := filepath.Join(dir, "cut.jsonl")
	if err := os.WriteFile(cut, []byte(strings.Join(lines[len(lines)/10:len(lines)*8/10], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var detOut, detErr bytes.Buffer
	if err := TBDetect([]string{"-in", cut, "-wire", "-lenient", "-blackbox", "-quality"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	unmatched := regexp.MustCompile(`(\d+) unmatched calls`).FindStringSubmatch(detErr.String())
	if unmatched == nil || unmatched[1] == "0" {
		t.Fatalf("want unmatched calls on stderr: %q", detErr.String())
	}
	quar := regexp.MustCompile(`visits quarantined\s+(\d+) \(orphan returns (\d+), duplicates 0, negative spans 0, in-flight (\d+), timed out 0\)`).
		FindStringSubmatch(detOut.String())
	if quar == nil {
		t.Fatalf("quality block quarantines nothing:\n%s", detOut.String())
	}
	orphans, _ := strconv.Atoi(quar[2])
	inFlight, _ := strconv.Atoi(quar[3])
	if quar[1] != strconv.Itoa(orphans+inFlight) || orphans == 0 || quar[3] != unmatched[1] {
		t.Errorf("quarantined %s (orphan returns %s, in-flight %s), want orphan returns > 0 and in-flight %s, the unmatched calls",
			quar[1], quar[2], quar[3], unmatched[1])
	}
}

func TestTBDetectClassesFlag(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "1000", "-duration", "10s", "-ramp", "3s", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var detOut, detErr bytes.Buffer
	if err := TBDetect([]string{"-in", out, "-classes", "mysql-1"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detOut.String(), "per-class breakdown for mysql-1") {
		t.Errorf("missing class section:\n%s", detOut.String())
	}
	if !strings.Contains(detOut.String(), "#q") {
		t.Errorf("no query classes listed:\n%s", detOut.String())
	}
	// Unknown server errors out.
	if err := TBDetect([]string{"-in", out, "-classes", "nosuch"}, &detOut, &detErr); err == nil {
		t.Error("want error for unknown -classes server")
	}
}

func TestTBDetectAutoInterval(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "2000", "-duration", "15s", "-ramp", "5s", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var detOut, detErr bytes.Buffer
	if err := TBDetect([]string{"-in", out, "-auto"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detErr.String(), "auto-selected interval") {
		t.Errorf("missing auto-selection report: %q", detErr.String())
	}
	if !strings.Contains(detErr.String(), "fidelity") {
		t.Errorf("missing scoring table: %q", detErr.String())
	}
	if !strings.Contains(detOut.String(), "mysql-1") {
		t.Errorf("analysis missing:\n%s", detOut.String())
	}
}

func TestExperimentsDataFlag(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := Experiments([]string{"run", "fig5", "-quick", "-data", dir}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "data written") {
		t.Errorf("missing data confirmation: %q", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5c_points.csv")); err != nil {
		t.Errorf("missing CSV: %v", err)
	}
	// Unsupported artifact errors cleanly.
	if err := Experiments([]string{"run", "tableII", "-data", dir}, &stdout, &stderr); err == nil {
		t.Error("want error for non-series artifact")
	}
}

func TestTBDetectRootCause(t *testing.T) {
	dir := t.TempDir()
	msgs := filepath.Join(dir, "messages.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "2000", "-duration", "10s", "-ramp", "3s",
		"-out", filepath.Join(dir, "v.jsonl"),
		"-messages", msgs,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	// A wire capture's attribution is the verdict block, which reads the
	// recovered call graph; there is no second root-cause table.
	var detOut, detErr bytes.Buffer
	if err := TBDetect([]string{"-in", msgs, "-wire"}, &detOut, &detErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detOut.String(), "root-cause verdicts") {
		t.Errorf("missing root-cause verdict block:\n%s", detOut.String())
	}
	err := TBDetect([]string{"-in", msgs, "-wire", "-rootcause"}, &detOut, &detErr)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -rootcause") {
		t.Errorf("-rootcause: err = %v, want it refused as an undefined flag", err)
	}
}

func TestTBDetectParallelFlagDeterministic(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "2000", "-duration", "10s", "-ramp", "3s", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var serial, serialErr bytes.Buffer
	if err := TBDetect([]string{"-in", out, "-parallel", "1"}, &serial, &serialErr); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"4", "8"} {
		var par, parErr bytes.Buffer
		if err := TBDetect([]string{"-in", out, "-parallel", workers}, &par, &parErr); err != nil {
			t.Fatal(err)
		}
		if par.String() != serial.String() {
			t.Errorf("-parallel %s report differs from serial:\n%s\nvs\n%s",
				workers, par.String(), serial.String())
		}
	}
}

// TestFollowMode pipes a simulated trace through tbdetect's online mode
// end to end: congestion alerts must stream out, the final ranked
// snapshot must print, and -selfmetrics must account for every record.
// The trace runs 20 s, so congestion still comes after the first live N*,
// which takes half a re-estimation period (10 s of trace).
func TestFollowMode(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "3000", "-duration", "20s", "-ramp", "3s",
		"-speedstep", "-seed", "7", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := TBDetect([]string{
		"-in", out, "-follow", "-shards", "4", "-selfmetrics",
	}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got := stdout.String()
	if !strings.Contains(got, "ALERT") {
		t.Errorf("no ALERT lines in follow output:\n%s", got)
	}
	if !strings.Contains(got, "final snapshot") {
		t.Errorf("no final snapshot in follow output:\n%s", got)
	}
	if !strings.Contains(got, "most frequent transient bottleneck") {
		t.Errorf("no bottleneck verdict in follow output:\n%s", got)
	}
	metrics := stderr.String()
	for _, want := range []string{"records ingested", "intervals closed", "queue depth per shard", "ingest rate"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("self-metrics block missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "records dropped        0") ||
		!strings.Contains(metrics, "records late           0") {
		t.Errorf("drops or late records on an ordered file replay:\n%s", metrics)
	}

	// Alerts and the snapshot are shard-count invariant on the same trace.
	var one, oneErr bytes.Buffer
	if err := TBDetect([]string{"-in", out, "-follow", "-shards", "1"}, &one, &oneErr); err != nil {
		t.Fatal(err)
	}
	if one.String() != got {
		t.Errorf("-shards 1 output differs from -shards 4:\n%s\nvs\n%s", one.String(), got)
	}

	// Follow mode reads visit JSONL only; wire captures are rejected.
	if err := TBDetect([]string{"-in", out, "-follow", "-wire"}, &stdout, &stderr); err == nil {
		t.Error("want error for -follow -wire")
	}
}

// usageFlags extracts the registered flag names from a FlagSet usage dump
// (the tool's -h output).
func usageFlags(t *testing.T, run func(args []string, stdout, stderr io.Writer) error, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(append(args, "-h"), &stdout, &stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String()+stdout.String(), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "-") {
			continue
		}
		name := strings.Fields(trimmed)[0]
		if name == "-h" {
			continue
		}
		flags = append(flags, name)
	}
	if len(flags) == 0 {
		t.Fatal("no flags parsed from -h output")
	}
	return flags
}

// TestCLIDocsCoverAllFlags pins docs/cli.md to the binaries: every flag a
// tool actually registers must appear in the hand-written reference, so
// the docs cannot silently drift.
func TestCLIDocsCoverAllFlags(t *testing.T) {
	docs, err := os.ReadFile(filepath.Join("..", "..", "docs", "cli.md"))
	if err != nil {
		t.Fatalf("docs/cli.md missing: %v", err)
	}
	ref := string(docs)
	for _, tool := range []struct {
		name string
		run  func(args []string, stdout, stderr io.Writer) error
		args []string
	}{
		{"ntiersim", NtierSim, nil},
		{"tbdetect", TBDetect, nil},
		{"tbdetect agent", Agent, nil},
		{"tbdetect merge", Merge, nil},
		{"experiments run", Experiments, []string{"run"}},
	} {
		for _, f := range usageFlags(t, tool.run, tool.args...) {
			if !strings.Contains(ref, "`"+f+"`") {
				t.Errorf("%s flag %s is not documented in docs/cli.md", tool.name, f)
			}
		}
	}
}

// The degraded-trace acceptance path: a wire capture with a garbage
// line, an orphan return, and one server's clock skewed backwards must
// fail loudly in strict mode and analyze cleanly in lenient mode, with
// the quality block owning up to every repair.
func TestTBDetectLenientSurvivesCorruptCapture(t *testing.T) {
	dir := t.TempDir()
	msgs := filepath.Join(dir, "messages.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "300", "-duration", "10s", "-ramp", "3s", "-seed", "9",
		"-out", filepath.Join(dir, "v.jsonl"),
		"-messages", msgs,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}

	// Corrupt the capture: skew mysql-1's clock back 20ms, inject a
	// garbage line mid-file, and append an orphan return.
	data, err := os.ReadFile(msgs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i+1, err)
		}
		if m["from"] == "mysql-1" {
			m["at_us"] = int64(m["at_us"].(float64)) - 20_000
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
	}
	mid := len(lines) / 2
	lines = append(lines[:mid], append([]string{"{garbage not json"}, lines[mid:]...)...)
	lines = append(lines, `{"at_us":999999999,"from":"mysql-1","to":"cjdbc","dir":"return","hop":987654321}`)
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var strictOut, strictErr bytes.Buffer
	if err := TBDetect([]string{"-in", corrupt, "-wire"}, &strictOut, &strictErr); err == nil {
		t.Fatal("strict mode should fail on the corrupt capture")
	}

	var out, errBuf bytes.Buffer
	if err := TBDetect([]string{"-in", corrupt, "-wire", "-lenient", "-quality"}, &out, &errBuf); err != nil {
		t.Fatalf("lenient mode failed: %v", err)
	}
	report := out.String()
	for _, server := range []string{"apache", "tomcat-1", "mysql-1", "cjdbc"} {
		if !strings.Contains(report, server) {
			t.Errorf("report missing %s:\n%s", server, report)
		}
	}
	if !strings.Contains(report, "trace quality:") {
		t.Fatalf("quality block missing:\n%s", report)
	}
	// The block must own up to each injected corruption: the garbage
	// line, the orphan return, and the skewed server.
	if !regexp.MustCompile(`lines read / skipped\s+\d+ / 1`).MatchString(report) {
		t.Errorf("skipped-lines count wrong:\n%s", report)
	}
	for _, want := range []string{"orphan returns 1", "mysql-1 +"} {
		if !strings.Contains(report, want) {
			t.Errorf("quality block missing %q:\n%s", want, report)
		}
	}
}
