package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"transientbd/internal/simnet"
)

// This file is the durable-state codec for Online: MarshalState captures
// everything the analyzer would lose in a crash — the sealed-interval
// ring, the per-class delay histograms of the re-estimation epochs, the
// N* estimate, the service-time table and the closure cursor — and
// RestoreState puts an
// analyzer built with the same options back into exactly that state.
// Continuing a restored analyzer over the remaining feed is
// field-identical to never having stopped (the checkpoint property test
// pins this down), which is what makes runtime-level checkpoint/resume
// batch-equivalent rather than merely approximate.
//
// The format is versioned and forward-compatible: a magic prefix, then a
// gob-encoded state struct carrying an explicit Version. Gob decodes by
// field name — fields added in a future version are ignored by older
// state structs and fields missing from an old checkpoint are left zero —
// so additions keep the version; a checkpoint of any other version is
// refused outright (ErrStateVersion) instead of being half-understood.

// onlineStateMagic prefixes every marshaled Online state so foreign bytes
// fail fast instead of confusing the gob decoder.
const onlineStateMagic = "TBD-ONLINE-STATE\n"

// onlineStateVersion is the current codec version. Bump it when a field
// changes meaning (not when one is merely added: gob's name-based decoding
// keeps additions compatible). Version 2 replaced version 1's per-class
// sample buffers with the epoch histograms, and its work units with work.
const onlineStateVersion = 2

// Restore errors, distinguishable so callers can decide between falling
// back to an older checkpoint (corrupt) and refusing to run (mismatch).
var (
	// ErrStateCorrupt reports bytes that are not a marshaled Online state
	// or fail structural validation.
	ErrStateCorrupt = errors.New("core: online state corrupt")
	// ErrStateVersion reports a checkpoint written by a codec version
	// other than the one this binary reads.
	ErrStateVersion = errors.New("core: online state from another version")
	// ErrStateMismatch reports a checkpoint whose analyzer configuration
	// (interval grid, window, re-estimation cadence, normalization mode)
	// differs from the restoring analyzer's: continuing would silently
	// change semantics, so a config change requires a cold start.
	ErrStateMismatch = errors.New("core: online state config mismatch")
)

// onlineState is the serialized form of an Online. Configuration fields
// are echoed so a restore into a differently-configured analyzer fails
// loudly instead of producing quietly wrong intervals.
type onlineState struct {
	Version int

	// Configuration echo (validated on restore).
	Interval      simnet.Duration
	Window        int
	Reperiod      int
	RawThroughput bool

	// Dynamic state.
	Start       simnet.Time
	Closed      int64
	LoadTime    []float64
	Work        []float64
	RingIdx     []int64
	NStar       NStarResult
	HasNStar    bool
	Reestimates int64

	// Normalization state: the table completions are normalized with, and
	// the self-estimator's epoch histograms and counters. These must
	// round-trip exactly — the work credited to each completion depends on
	// the table at observation time, and the next table on the histograms,
	// so dropping them would make a resumed run drift from an
	// uninterrupted one.
	Svc      ServiceTimes
	Hists    map[string]delayHist
	EpochIdx []int64
	Seen     int64
	SeenAt   int64
}

// MarshalState serializes the analyzer's complete dynamic state. The
// result is self-describing (magic + version) and restorable into a fresh
// Online built with the same OnlineOptions via RestoreState.
func (o *Online) MarshalState() ([]byte, error) {
	st := onlineState{
		Version:       onlineStateVersion,
		Interval:      o.opts.Interval,
		Window:        o.window,
		Reperiod:      o.reperiod,
		RawThroughput: o.opts.RawThroughput,
		Start:         o.start,
		Closed:        o.closed,
		LoadTime:      o.loadTime,
		Work:          o.work,
		RingIdx:       o.ringIdx,
		NStar:         o.nstar,
		HasNStar:      o.hasNStar,
		Reestimates:   o.reestimates,
		Svc:           o.svc,
		Hists:         o.hists,
		EpochIdx:      o.epochIdx,
		Seen:          o.seen,
		SeenAt:        o.seenAt,
	}
	var buf bytes.Buffer
	buf.WriteString(onlineStateMagic)
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("core: marshal online state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState overwrites the analyzer's dynamic state with a previously
// marshaled one. The receiver must have been built with the same
// OnlineOptions that produced the checkpoint (interval, window,
// re-estimation cadence, normalization mode) — mismatches return
// ErrStateMismatch and leave the receiver untouched, as do corrupt bytes
// (ErrStateCorrupt) and checkpoints of another codec version
// (ErrStateVersion). On success, continuing the analyzer over the
// remaining feed is field-identical to never having stopped.
func (o *Online) RestoreState(data []byte) error {
	if len(data) < len(onlineStateMagic) || string(data[:len(onlineStateMagic)]) != onlineStateMagic {
		return fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	var st onlineState
	if err := gob.NewDecoder(bytes.NewReader(data[len(onlineStateMagic):])).Decode(&st); err != nil {
		return fmt.Errorf("%w: %v", ErrStateCorrupt, err)
	}
	if st.Version != onlineStateVersion {
		return fmt.Errorf("%w: checkpoint v%d, this binary reads v%d",
			ErrStateVersion, st.Version, onlineStateVersion)
	}
	if st.Interval != o.opts.Interval || st.Window != o.window ||
		st.Reperiod != o.reperiod || st.RawThroughput != o.opts.RawThroughput {
		return fmt.Errorf("%w: checkpoint (interval %v, window %d, reperiod %d, raw %v) vs analyzer (interval %v, window %d, reperiod %d, raw %v)",
			ErrStateMismatch,
			st.Interval, st.Window, st.Reperiod, st.RawThroughput,
			o.opts.Interval, o.window, o.reperiod, o.opts.RawThroughput)
	}
	// Structural validation: a corrupt-but-decodable payload must not be
	// able to panic the analyzer later (ring indexing trusts these
	// lengths).
	if len(st.LoadTime) != st.Window || len(st.Work) != st.Window || len(st.RingIdx) != st.Window {
		return fmt.Errorf("%w: ring length %d/%d/%d != window %d",
			ErrStateCorrupt, len(st.LoadTime), len(st.Work), len(st.RingIdx), st.Window)
	}
	if st.Closed < 0 || st.Start < 0 {
		return fmt.Errorf("%w: negative cursor (closed %d, start %v)", ErrStateCorrupt, st.Closed, st.Start)
	}
	if o.hists != nil {
		if err := checkEpochs(&st, len(o.epochIdx)); err != nil {
			return err
		}
		o.hists = st.Hists
		if o.hists == nil { // gob sends no empty map
			o.hists = make(map[string]delayHist)
		}
		o.epochIdx, o.seen, o.seenAt = st.EpochIdx, st.Seen, st.SeenAt
	}

	o.start = st.Start
	o.closed = st.Closed
	o.loadTime = st.LoadTime
	o.work = st.Work
	o.ringIdx = st.RingIdx
	o.nstar = st.NStar
	o.hasNStar = st.HasNStar
	o.reestimates = st.Reestimates
	o.svc = st.Svc
	return nil
}

// checkEpochs validates a self-estimated state's histogram ring against
// the ring of epochs the restoring analyzer keeps, so a corrupt but
// decodable payload cannot make count or rebuildTable index out of range.
func checkEpochs(st *onlineState, epochs int) error {
	if len(st.EpochIdx) != epochs {
		return fmt.Errorf("%w: epoch ring length %d, want %d", ErrStateCorrupt, len(st.EpochIdx), epochs)
	}
	for slot, e := range st.EpochIdx {
		if e < -1 || e >= 0 && e%int64(epochs) != int64(slot) {
			return fmt.Errorf("%w: epoch %d in ring slot %d of %d", ErrStateCorrupt, e, slot, epochs)
		}
	}
	for class, h := range st.Hists {
		if len(h) != epochs*histBuckets {
			return fmt.Errorf("%w: class %q holds %d counts, want %d epochs × %d buckets",
				ErrStateCorrupt, class, len(h), epochs, histBuckets)
		}
	}
	if st.Seen < 0 || st.SeenAt < 0 || st.SeenAt > st.Seen {
		return fmt.Errorf("%w: delay counters seen %d, at last table %d", ErrStateCorrupt, st.Seen, st.SeenAt)
	}
	return nil
}
