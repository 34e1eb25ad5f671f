// Durable checkpoint files. A checkpoint is a consistent cut taken at a
// producer barrier: every record accepted by Observe before the cut is
// reflected in exactly one serialized analyzer state, and the replay
// cursor (Observed) records how many accepted records the cut covers, so
// a resuming caller can skip the already-incorporated prefix of the same
// feed.
//
// Layout: magic, a CRC-32 of the payload, then a gob-encoded
// checkpointState carrying an explicit version (same forward-compatible
// scheme as the per-analyzer codec in internal/core). Files are written
// to a temp name, fsynced and renamed — a crash mid-write leaves the
// previous checkpoint intact — and the two newest files are kept so a
// corrupt latest falls back one generation instead of to a cold start.
package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"transientbd/internal/simnet"
)

const (
	ckptMagic   = "TBD-STREAM-CKPT\n"
	ckptVersion = 1
	// ckptKeep is how many checkpoint generations survive pruning.
	ckptKeep = 2
)

// checkpointState is the serialized form of one consistent cut.
type checkpointState struct {
	Version int
	// Seq orders checkpoint files; Epoch and Mark are the watermark
	// barrier the cut was taken at; MaxDepart restores the trace clock.
	Seq       int64
	Epoch     int64
	Mark      simnet.Time
	MaxDepart simnet.Time
	// Observed is the replay cursor: records accepted by Observe before
	// the cut.
	Observed int64
	// Self-metrics counters, restored so accounting survives restarts.
	Ingested, Dropped, Late                       int64
	IntervalsClosed, Congested, POIs, Reestimates int64
	// Interval echoes the monitoring interval for cold validation before
	// any per-server restore runs (each server blob revalidates its full
	// config itself).
	Interval simnet.Duration
	// Servers maps server name to its marshaled core.Online state. Keyed
	// by name, not shard index: a resumed runtime may use a different
	// shard count and redistributes by hash.
	Servers map[string][]byte
	// CallGraph is the edge set derived from the transaction linkage of
	// the visits before the cut. A checkpoint written before it existed
	// restores an empty set, which the visits after the cut rebuild.
	CallGraph map[string][]string
}

// ckptFileName names a checkpoint file so lexical order is Seq order.
func ckptFileName(seq int64) string {
	return fmt.Sprintf("checkpoint-%016d.tbc", seq)
}

// writeCheckpoint atomically persists one cut into dir.
func writeCheckpoint(dir string, st checkpointState) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&st); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	return writeFramed(dir, ckptFileName(st.Seq), body.Bytes())
}

// writeFramed wraps payload in the checkpoint frame (magic + CRC-32) and
// writes it to dir/name via a synced temp file and an atomic rename.
func writeFramed(dir, name string, payload []byte) error {
	var buf bytes.Buffer
	buf.Grow(len(ckptMagic) + 4 + len(payload))
	buf.WriteString(ckptMagic)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
	buf.Write(payload)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// readCheckpointFile loads and validates one checkpoint file.
func readCheckpointFile(path string) (*checkpointState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("not a checkpoint file (bad magic)")
	}
	want := binary.BigEndian.Uint32(data[len(ckptMagic) : len(ckptMagic)+4])
	payload := data[len(ckptMagic)+4:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("corrupt payload (crc %08x != %08x)", got, want)
	}
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("corrupt payload: %w", err)
	}
	if st.Version > ckptVersion {
		return nil, fmt.Errorf("checkpoint v%d, this binary reads up to v%d", st.Version, ckptVersion)
	}
	if st.Observed < 0 || st.Mark < 0 || st.Seq < 0 {
		return nil, fmt.Errorf("corrupt payload: negative cursor")
	}
	return &st, nil
}

// ckptFiles lists dir's checkpoint files newest-first.
func ckptFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tbc") {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// loadLatestCheckpoint returns the newest valid checkpoint in dir, plus
// a warning per file skipped as corrupt or unreadable. (nil, warnings)
// means cold start: resume never fails the runtime over bad files.
func loadLatestCheckpoint(dir string) (*checkpointState, []string) {
	var warns []string
	for _, name := range ckptFiles(dir) {
		path := filepath.Join(dir, name)
		st, err := readCheckpointFile(path)
		if err != nil {
			warns = append(warns, fmt.Sprintf("checkpoint %s unusable, falling back: %v", name, err))
			continue
		}
		return st, warns
	}
	return nil, warns
}

// pruneCheckpoints removes checkpoint files older than keepFrom (best
// effort), bounding the directory to the ckptKeep newest generations.
func pruneCheckpoints(dir string, keepFrom int64) {
	names := ckptFiles(dir)
	if len(names) <= ckptKeep {
		return
	}
	cutoff := ckptFileName(keepFrom)
	for _, name := range names[ckptKeep:] {
		if name < cutoff {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
