package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"transientbd/internal/simnet"
)

// This file is the durable-state codec for Online: MarshalState captures
// everything the analyzer would lose in a crash — the sealed-interval
// ring, the per-class service-time reservoirs, the N* estimate, the
// normalization caches and the closure cursor — and RestoreState puts an
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
// so new code reads old checkpoints; checkpoints written by a NEWER
// version than the reader are refused outright (ErrStateVersion) instead
// of being half-understood.

// onlineStateMagic prefixes every marshaled Online state so foreign bytes
// fail fast instead of confusing the gob decoder.
const onlineStateMagic = "TBD-ONLINE-STATE\n"

// onlineStateVersion is the current codec version. Bump it when a field
// changes meaning (not when one is merely added: gob's name-based decoding
// keeps additions compatible).
const onlineStateVersion = 1

// Restore errors, distinguishable so callers can decide between falling
// back to an older checkpoint (corrupt) and refusing to run (mismatch).
var (
	// ErrStateCorrupt reports bytes that are not a marshaled Online state
	// or fail structural validation.
	ErrStateCorrupt = errors.New("core: online state corrupt")
	// ErrStateVersion reports a checkpoint written by a newer codec
	// version than this binary understands.
	ErrStateVersion = errors.New("core: online state from a newer version")
	// ErrStateMismatch reports a checkpoint whose analyzer configuration
	// (interval grid, window, re-estimation cadence, normalization mode)
	// differs from the restoring analyzer's: continuing would silently
	// change semantics, so a config change requires a cold start.
	ErrStateMismatch = errors.New("core: online state config mismatch")
)

// reservoirState is the serialized form of one class's service-time
// reservoir.
type reservoirState struct {
	Samples []float64
	Next    int
}

// onlineState is the serialized form of an Online. Configuration fields
// are echoed so a restore into a differently-configured analyzer fails
// loudly instead of producing quietly wrong intervals.
type onlineState struct {
	Version int

	// Configuration echo (validated on restore).
	Interval      simnet.Duration
	Window        int
	Reperiod      int
	ReservoirCap  int
	RawThroughput bool

	// Dynamic state.
	Start       simnet.Time
	Closed      int64
	LoadTime    []float64
	Units       []float64
	RingIdx     []int64
	Reservoirs  map[string]reservoirState
	NStar       NStarResult
	HasNStar    bool
	Reestimates int64

	// Normalization state: the calibrated table (if any) plus the cached
	// table/unit and the refresh countdown. These must round-trip exactly
	// — the work-unit count credited to each completion depends on the
	// cache contents at observation time, so dropping them would make a
	// resumed run drift from an uninterrupted one.
	FixedSvc   ServiceTimes
	CachedSvc  ServiceTimes
	CachedUnit simnet.Duration
	SinceSvc   int
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
		ReservoirCap:  reservoirSize,
		RawThroughput: o.opts.RawThroughput,
		Start:         o.start,
		Closed:        o.closed,
		LoadTime:      o.loadTime,
		Units:         o.units,
		RingIdx:       o.ringIdx,
		NStar:         o.nstar,
		HasNStar:      o.hasNStar,
		Reestimates:   o.reestimates,
		FixedSvc:      o.fixedSvc,
		CachedSvc:     o.cachedSvc,
		CachedUnit:    o.cachedUnit,
		SinceSvc:      o.sinceSvc,
	}
	if len(o.reservoirs) > 0 {
		st.Reservoirs = make(map[string]reservoirState, len(o.reservoirs))
		for class, r := range o.reservoirs {
			st.Reservoirs[class] = reservoirState{Samples: r.samples, Next: r.next}
		}
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
// re-estimation cadence, normalization mode) and by a binary with the
// same reservoir size —
// mismatches return ErrStateMismatch and leave the receiver untouched, as
// do corrupt bytes (ErrStateCorrupt) and checkpoints from a newer codec
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
	if st.Version > onlineStateVersion {
		return fmt.Errorf("%w: checkpoint v%d, this binary reads up to v%d",
			ErrStateVersion, st.Version, onlineStateVersion)
	}
	if st.Interval != o.opts.Interval || st.Window != o.window ||
		st.Reperiod != o.reperiod || st.ReservoirCap != reservoirSize ||
		st.RawThroughput != o.opts.RawThroughput {
		return fmt.Errorf("%w: checkpoint (interval %v, window %d, reperiod %d, reservoir %d, raw %v) vs analyzer (interval %v, window %d, reperiod %d, reservoir %d, raw %v)",
			ErrStateMismatch,
			st.Interval, st.Window, st.Reperiod, st.ReservoirCap, st.RawThroughput,
			o.opts.Interval, o.window, o.reperiod, reservoirSize, o.opts.RawThroughput)
	}
	// Structural validation: a corrupt-but-decodable payload must not be
	// able to panic the analyzer later (ring indexing trusts these
	// lengths).
	if len(st.LoadTime) != st.Window || len(st.Units) != st.Window || len(st.RingIdx) != st.Window {
		return fmt.Errorf("%w: ring length %d/%d/%d != window %d",
			ErrStateCorrupt, len(st.LoadTime), len(st.Units), len(st.RingIdx), st.Window)
	}
	if st.Closed < 0 || st.Start < 0 {
		return fmt.Errorf("%w: negative cursor (closed %d, start %v)", ErrStateCorrupt, st.Closed, st.Start)
	}
	// A still-filling reservoir has never wrapped, so its cursor is 0; and
	// a NaN or ±Inf sample is no delay (serviceTable's selection also
	// requires NaN-free samples).
	for class, r := range st.Reservoirs {
		if len(r.Samples) > st.ReservoirCap || r.Next < 0 || (r.Next >= st.ReservoirCap && st.ReservoirCap > 0) ||
			(len(r.Samples) < st.ReservoirCap && r.Next != 0) {
			return fmt.Errorf("%w: reservoir %q (%d samples, next %d, cap %d)",
				ErrStateCorrupt, class, len(r.Samples), r.Next, st.ReservoirCap)
		}
		for _, x := range r.Samples {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: reservoir %q holds sample %v", ErrStateCorrupt, class, x)
			}
		}
	}

	o.start = st.Start
	o.closed = st.Closed
	o.loadTime = st.LoadTime
	o.units = st.Units
	o.ringIdx = st.RingIdx
	o.nstar = st.NStar
	o.hasNStar = st.HasNStar
	o.reestimates = st.Reestimates
	o.fixedSvc = st.FixedSvc
	o.cachedSvc = st.CachedSvc
	o.cachedUnit = st.CachedUnit
	o.sinceSvc = st.SinceSvc
	o.reservoirs = make(map[string]*reservoir, len(st.Reservoirs))
	for class, r := range st.Reservoirs {
		o.reservoirs[class] = &reservoir{samples: r.Samples, next: r.Next}
	}
	return nil
}
