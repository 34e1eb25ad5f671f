package stream

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

func sampleState(seq int64) checkpointState {
	return checkpointState{
		Version:         ckptVersion,
		Seq:             seq,
		Epoch:           42,
		Mark:            3 * simnet.Second,
		MaxDepart:       3*simnet.Second + 700*simnet.Millisecond,
		Observed:        10_000,
		Ingested:        9_900,
		Dropped:         100,
		Late:            3,
		IntervalsClosed: 240,
		Congested:       17,
		POIs:            2,
		Reestimates:     4,
		Interval:        50 * simnet.Millisecond,
		Servers: map[string][]byte{
			"web-1": []byte("blob-a"),
			"db-1":  []byte("blob-b"),
		},
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleState(7)
	if err := writeCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, warns := loadLatestCheckpoint(dir)
	if len(warns) != 0 {
		t.Fatalf("unexpected warnings: %v", warns)
	}
	if got == nil {
		t.Fatal("loadLatestCheckpoint returned nil")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, want)
	}
	// The temp file must not linger after the rename.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale temp file %s left behind", e.Name())
		}
	}
}

// TestCheckpointCorruptFallback: a damaged newest file must fall back to
// the previous generation with a warning; when every file is damaged the
// result is a cold start (nil), never an error or a panic.
func TestCheckpointCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	older := sampleState(1)
	newer := sampleState(2)
	if err := writeCheckpoint(dir, older); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(dir, newer); err != nil {
		t.Fatal(err)
	}

	newest := filepath.Join(dir, ckptFileName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, warns := loadLatestCheckpoint(dir)
	if got == nil || got.Seq != 1 {
		t.Fatalf("expected fallback to seq 1, got %+v", got)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], ckptFileName(2)) {
		t.Fatalf("expected one warning naming the bad file, got %v", warns)
	}

	// Flip a payload byte in the older file too: CRC must catch it.
	oldPath := filepath.Join(dir, ckptFileName(1))
	data, err = os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, warns = loadLatestCheckpoint(dir)
	if got != nil {
		t.Fatalf("expected cold start with all files corrupt, got %+v", got)
	}
	if len(warns) != 2 {
		t.Fatalf("expected two warnings, got %v", warns)
	}
}

func TestCheckpointRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(1)
	st.Version = ckptVersion + 1
	if err := writeCheckpoint(dir, st); err != nil {
		t.Fatal(err)
	}
	got, warns := loadLatestCheckpoint(dir)
	if got != nil {
		t.Fatalf("newer-version checkpoint must be refused, got %+v", got)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "v2") {
		t.Fatalf("expected a version warning, got %v", warns)
	}
}

// TestCheckpointForwardCompat: gob's name-based decoding must accept a
// same-version payload that carries extra (future, additive) fields.
func TestCheckpointForwardCompat(t *testing.T) {
	type checkpointStateV1x struct {
		Version                                       int
		Seq, Epoch                                    int64
		Mark, MaxDepart                               simnet.Time
		Observed                                      int64
		Ingested, Dropped, Late                       int64
		IntervalsClosed, Congested, POIs, Reestimates int64
		Interval                                      simnet.Duration
		Servers                                       map[string][]byte
		FutureField                                   string // additive field from a later minor revision
	}
	base := sampleState(3)
	ext := checkpointStateV1x{
		Version: base.Version, Seq: base.Seq, Epoch: base.Epoch,
		Mark: base.Mark, MaxDepart: base.MaxDepart, Observed: base.Observed,
		Ingested: base.Ingested, Dropped: base.Dropped, Late: base.Late,
		IntervalsClosed: base.IntervalsClosed, Congested: base.Congested,
		POIs: base.POIs, Reestimates: base.Reestimates,
		Interval: base.Interval, Servers: base.Servers,
		FutureField: "ignored by this reader",
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&ext); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Reuse the writer's framing by round-tripping through writeCheckpoint
	// is not possible for a foreign struct, so frame by hand.
	if err := writeFramed(dir, ckptFileName(3), body.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, warns := loadLatestCheckpoint(dir)
	if len(warns) != 0 || got == nil {
		t.Fatalf("extended payload refused: %+v, warns %v", got, warns)
	}
	if !reflect.DeepEqual(*got, base) {
		t.Fatalf("extended payload decoded wrong:\n got %+v\nwant %+v", *got, base)
	}
}

func TestCheckpointPrune(t *testing.T) {
	dir := t.TempDir()
	for seq := int64(1); seq <= 5; seq++ {
		if err := writeCheckpoint(dir, sampleState(seq)); err != nil {
			t.Fatal(err)
		}
		pruneCheckpoints(dir, seq-1)
	}
	names := ckptFiles(dir)
	if len(names) != ckptKeep {
		t.Fatalf("expected %d files after pruning, got %v", ckptKeep, names)
	}
	if names[0] != ckptFileName(5) || names[1] != ckptFileName(4) {
		t.Fatalf("pruning kept the wrong generations: %v", names)
	}
}

// TestResumeKeepsCallGraph: the call graph derived before a checkpoint
// cut survives a resume, and the visits after it add to it.
func TestResumeKeepsCallGraph(t *testing.T) {
	dir := t.TempDir()
	ms := simnet.Millisecond
	run := func(resume bool, visits ...trace.Visit) *Snapshot {
		t.Helper()
		rt, err := New(Config{CheckpointDir: dir, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range rt.Alerts() {
			}
		}()
		for _, v := range visits {
			if err := rt.Observe(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap := rt.Snapshot()
		rt.Abort()
		return snap
	}
	first := run(false,
		trace.Visit{Server: "apache", TxnID: 1, Arrive: 0, Depart: 10 * ms},
		trace.Visit{Server: "tomcat", TxnID: 1, Arrive: 1 * ms, Depart: 9 * ms})
	if want := map[string][]string{"apache": {"tomcat"}}; !reflect.DeepEqual(first.Graph, want) {
		t.Fatalf("graph before the cut %v, want %v", first.Graph, want)
	}
	resumed := run(true,
		trace.Visit{Server: "mysql", TxnID: 2, Arrive: 12 * ms, Depart: 13 * ms},
		trace.Visit{Server: "tomcat", TxnID: 2, Arrive: 11 * ms, Depart: 14 * ms})
	if want := map[string][]string{"apache": {"tomcat"}, "tomcat": {"mysql"}}; !reflect.DeepEqual(resumed.Graph, want) {
		t.Fatalf("graph after resume %v, want %v", resumed.Graph, want)
	}
}
