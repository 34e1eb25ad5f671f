package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// genTrace simulates a small n-tier run and returns the visit JSONL path.
func genTrace(t *testing.T) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "visits.jsonl")
	var simOut, simErr bytes.Buffer
	if err := NtierSim([]string{
		"-users", "2000", "-duration", "12s", "-ramp", "3s",
		"-speedstep", "-seed", "7", "-out", out,
	}, &simOut, &simErr); err != nil {
		t.Fatal(err)
	}
	return out
}

func ckptFilesIn(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.tbc"))
	return matches
}

// TestFollowFlagValidation: contradictory flag combinations must fail
// with one clear error before any input is read.
func TestFollowFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"resume-without-checkpoint", []string{"-follow", "-resume"}, "-resume needs -checkpoint"},
		{"ckptevery-without-checkpoint", []string{"-follow", "-ckptevery", "5s"}, "-ckptevery needs -checkpoint"},
		{"checkpoint-without-follow", []string{"-checkpoint", "/tmp/x"}, "add -follow"},
		{"resume-without-follow", []string{"-checkpoint", "/tmp/x", "-resume"}, "add -follow"},
		{"shards-without-follow", []string{"-shards", "4"}, "add -follow"},
		{"window-without-follow", []string{"-window", "30s"}, "add -follow"},
		{"flushlag-without-follow", []string{"-flushlag", "2s"}, "add -follow"},
		{"selfmetrics-without-follow", []string{"-selfmetrics"}, "add -follow"},
		{"follow-with-parallel", []string{"-follow", "-parallel", "4"}, "batch-only"},
		{"follow-with-auto", []string{"-follow", "-auto"}, "batch-only"},
		{"follow-with-window-flags", []string{"-follow", "-from", "1s", "-to", "2s"}, "batch-only"},
		{"follow-with-wire", []string{"-follow", "-wire"}, "batch-only"},
		{"follow-with-rootcause", []string{"-follow", "-rootcause"}, "not defined"},
		{"to-before-from", []string{"-from", "8s", "-to", "4s"}, "-to 4s is not after -from 8s"},
		{"to-equals-from", []string{"-from", "4s", "-to", "4s"}, "-to 4s is not after -from 4s"},
		{"negative-from", []string{"-from", "-5s"}, "-from -5s"},
		{"negative-to", []string{"-to", "-5s"}, "-to -5s"},
		{"to-above-interval-limit", []string{"-to", "2000000h"}, "-to 2000000h0m0s: core: interval 50ms: window of 144000000000 intervals exceeds the limit"},
		{"blackbox-without-wire", []string{"-blackbox"}, "-blackbox needs -wire"},
		{"inflight-without-wire", []string{"-inflight", "5s"}, "-inflight needs -wire -lenient"},
		{"inflight-without-lenient", []string{"-wire", "-inflight", "5s"}, "-inflight needs -wire -lenient"},
		{"inflight-with-blackbox", []string{"-wire", "-lenient", "-blackbox", "-inflight", "1ms", "-quality"}, "-inflight does not apply with -blackbox"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := TBDetect(append(tc.args, "-in", "/nonexistent.jsonl"), &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %v: expected a validation error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestDetectFlagValues: a detection flag value the runtime cannot honour
// is rejected by name, with the same text from `tbdetect -follow` and
// `tbdetect merge` (one builder serves both), before either reads a
// record or opens a listener. -interval also serves the batch path, so
// `tbdetect -in` must say the same about it — including the values that
// are positive as a time.Duration but not a whole number of the trace
// clock's microseconds (500ns used to truncate to zero and run the 50 ms
// default on a window sized for 2.4e8 intervals).
func TestDetectFlagValues(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		want  string
		batch bool // the flag is not follow-only: tbdetect -in rejects it too
	}{
		{"zero-interval", []string{"-interval", "0"}, "-interval 0s", true},
		{"negative-interval", []string{"-interval", "-50ms"}, "-interval -50ms", true},
		{"negative-interval-5ms", []string{"-interval", "-5ms"}, "-interval -5ms", true},
		{"sub-microsecond-interval", []string{"-interval", "500ns"}, "-interval 500ns", true},
		{"nanosecond-interval", []string{"-interval", "1ns"}, "-interval 1ns", true},
		{"fractional-microsecond-interval", []string{"-interval", "1500ns"}, "-interval 1.5µs", true},
		{"window-below-interval", []string{"-window", "10ms"}, "-window 10ms", false},
		{"window-below-20-intervals", []string{"-interval", "1s", "-window", "19s"}, "-window 19s", false},
		{"window-above-interval-limit", []string{"-window", "10000h"}, "-window 10000h0m0s at -interval 50ms: window of 720000000 intervals exceeds the limit", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			ferr := TBDetect(append([]string{"-follow", "-in", empty}, tc.args...), &out, &errOut)
			merr := Merge(append([]string{"-listen", "127.0.0.1:0"}, tc.args...), &out, &errOut)
			if ferr == nil || merr == nil {
				t.Fatalf("args %v accepted: -follow %v, merge %v", tc.args, ferr, merr)
			}
			if ferr.Error() != merr.Error() {
				t.Errorf("args %v: -follow says %q, merge says %q", tc.args, ferr, merr)
			}
			if tc.batch {
				berr := TBDetect(append([]string{"-in", empty}, tc.args...), &out, &errOut)
				if berr == nil || berr.Error() != ferr.Error() {
					t.Errorf("args %v: -in says %v, -follow says %q", tc.args, berr, ferr)
				}
			}
			if !strings.Contains(ferr.Error(), tc.want) {
				t.Errorf("args %v: error %q does not name %q", tc.args, ferr, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("args %v: output before the rejection:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestFollowCheckpointResume: a full follow run leaves a final checkpoint
// behind; a -resume run over the same feed must skip every incorporated
// record and reproduce the same final snapshot without reprocessing.
func TestFollowCheckpointResume(t *testing.T) {
	trace := genTrace(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	var out1, err1 bytes.Buffer
	if err := TBDetect([]string{
		"-in", trace, "-follow", "-shards", "4", "-checkpoint", ckptDir,
	}, &out1, &err1); err != nil {
		t.Fatal(err)
	}
	if len(ckptFilesIn(ckptDir)) == 0 {
		t.Fatal("no checkpoint files after a follow run with -checkpoint")
	}

	var out2, err2 bytes.Buffer
	if err := TBDetect([]string{
		"-in", trace, "-follow", "-shards", "4", "-checkpoint", ckptDir, "-resume",
	}, &out2, &err2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(err2.String(), "resumed from checkpoint") {
		t.Fatalf("resume run did not report the restored checkpoint:\n%s", err2.String())
	}
	cut := func(s string) string {
		if i := strings.Index(s, "final snapshot"); i >= 0 {
			return s[i:]
		}
		return ""
	}
	if cut(out1.String()) == "" || cut(out1.String()) != cut(out2.String()) {
		t.Errorf("resumed final snapshot differs from the original run:\n--- original\n%s\n--- resumed\n%s",
			cut(out1.String()), cut(out2.String()))
	}
	// Every record was already incorporated: the resume run must not
	// re-emit the original run's alerts.
	if strings.Contains(out2.String(), "ALERT") {
		t.Errorf("resume run re-emitted alerts for already-processed records:\n%s", out2.String())
	}
}

// TestFollowGracefulStop drives the SIGINT/SIGTERM path through the
// injectable stop channel: ingestion stops, intervals seal, the final
// state is written, and the run returns cleanly (exit 0), leaving a
// checkpoint a later -resume run can continue from.
func TestFollowGracefulStop(t *testing.T) {
	trace := genTrace(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	stop := make(chan struct{})
	close(stop) // signal already pending: stop at the first batch
	var stdout, stderr bytes.Buffer
	err = runFollow(f, &stdout, &stderr, followOpts{
		detectFlags: detectFlags{
			interval:      50 * time.Millisecond,
			window:        2 * time.Minute,
			flushLag:      time.Second,
			shards:        2,
			checkpointDir: ckptDir,
			ckptEvery:     10 * time.Second,
		},
		stop: stop,
	})
	if err != nil {
		t.Fatalf("graceful stop must exit cleanly, got %v", err)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("no interruption notice on stderr:\n%s", stderr.String())
	}
	if len(ckptFilesIn(ckptDir)) == 0 {
		t.Fatal("no final checkpoint written on graceful stop")
	}

	// The stop-time checkpoint must be resumable.
	var out2, err2 bytes.Buffer
	if rerr := TBDetect([]string{
		"-in", trace, "-follow", "-shards", "2", "-checkpoint", ckptDir, "-resume",
	}, &out2, &err2); rerr != nil {
		t.Fatalf("resume after graceful stop: %v", rerr)
	}
	if !strings.Contains(err2.String(), "resumed from checkpoint") {
		t.Fatalf("resume run did not restore the stop-time checkpoint:\n%s", err2.String())
	}
	if !strings.Contains(out2.String(), "final snapshot") {
		t.Errorf("resume run produced no final snapshot:\n%s", out2.String())
	}
}
