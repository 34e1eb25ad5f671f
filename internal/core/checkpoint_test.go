package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// ckptOp is one step of a randomized analyzer workload: either an
// observation or a clock advance.
type ckptOp struct {
	visit   trace.Visit
	advance simnet.Time // 0 = this op is a visit
}

// genCkptOps builds a random interleaving of visits and advances over a
// few request classes, with bursts so congested intervals and POIs
// actually occur and N* re-estimation fires.
func genCkptOps(rng *rand.Rand, n int) []ckptOp {
	classes := []struct {
		name string
		svc  simnet.Duration
	}{
		{"small", 2 * simnet.Millisecond},
		{"mid", 4 * simnet.Millisecond},
		{"big", 8 * simnet.Millisecond},
	}
	var ops []ckptOp
	clock := simnet.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			// Advance to a little behind the clock (straggler slack), on
			// no particular grid alignment.
			adv := clock - simnet.Duration(rng.Int63n(20_000))
			if adv > 0 {
				ops = append(ops, ckptOp{advance: adv})
			}
			continue
		}
		c := classes[rng.Intn(len(classes))]
		arrive := clock + simnet.Duration(rng.Int63n(5_000))
		resid := c.svc + simnet.Duration(rng.Int63n(60_000))
		if rng.Intn(8) == 0 {
			resid += 200 * simnet.Millisecond // burst: long residence
		}
		ops = append(ops, ckptOp{visit: trace.Visit{
			Server: "s", Class: c.name,
			Arrive: arrive, Depart: arrive + resid,
		}})
		clock += simnet.Duration(rng.Int63n(8_000))
	}
	ops = append(ops, ckptOp{advance: clock + simnet.Second})
	return ops
}

// applyOps runs ops through o, returning every alert emitted.
func applyOps(o *Online, ops []ckptOp) []Alert {
	var alerts []Alert
	for _, op := range ops {
		if op.advance > 0 {
			alerts = append(alerts, o.Advance(op.advance)...)
		} else {
			o.Observe(op.visit)
		}
	}
	return alerts
}

// onlineOptVariants are the analyzer configurations the round-trip
// property is checked under: self-estimated service times, a calibrated
// table, and raw throughput.
func onlineOptVariants() map[string]OnlineOptions {
	calib := ServiceTimes{
		"small": 2 * simnet.Millisecond,
		"mid":   4 * simnet.Millisecond,
		"big":   8 * simnet.Millisecond,
	}
	return map[string]OnlineOptions{
		"self-estimated": {WindowIntervals: 200, ReestimateEvery: 40},
		"calibrated":     {Options: Options{ServiceTimes: calib}, WindowIntervals: 200, ReestimateEvery: 40},
		"raw": {
			Options:         Options{RawThroughput: true},
			WindowIntervals: 200, ReestimateEvery: 40,
		},
	}
}

// TestOnlineCheckpointRoundTrip is the codec property test: checkpoint at
// a random op, restore into a fresh analyzer, continue over the remaining
// ops — the suffix alerts, the final snapshot and every observable cursor
// must be field-identical to the uninterrupted run.
func TestOnlineCheckpointRoundTrip(t *testing.T) {
	for name, opts := range onlineOptVariants() {
		t.Run(name, func(t *testing.T) {
			for trial := int64(0); trial < 12; trial++ {
				rng := rand.New(rand.NewSource(1000 + trial))
				// ~360 visits a class: past reservoirSize, so cuts land on
				// reservoirs that have wrapped as well as ones still filling.
				ops := genCkptOps(rng, 1200)
				cut := 1 + rng.Intn(len(ops)-1)

				golden, err := NewOnline(0, opts)
				if err != nil {
					t.Fatal(err)
				}
				goldenAlerts := applyOps(golden, ops)

				// Interrupted run: same prefix, marshal, restore into a
				// fresh analyzer, same suffix.
				first, err := NewOnline(0, opts)
				if err != nil {
					t.Fatal(err)
				}
				prefixAlerts := applyOps(first, ops[:cut])
				blob, err := first.MarshalState()
				if err != nil {
					t.Fatalf("trial %d: MarshalState: %v", trial, err)
				}
				restored, err := NewOnline(0, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.RestoreState(blob); err != nil {
					t.Fatalf("trial %d: RestoreState: %v", trial, err)
				}
				suffixAlerts := applyOps(restored, ops[cut:])

				resumed := append(append([]Alert(nil), prefixAlerts...), suffixAlerts...)
				if !reflect.DeepEqual(resumed, goldenAlerts) {
					t.Fatalf("trial %d (cut %d/%d): alert stream diverges after restore: %d alerts vs %d golden",
						trial, cut, len(ops), len(resumed), len(goldenAlerts))
				}
				if g, r := golden.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(g, r) {
					t.Fatalf("trial %d (cut %d/%d): snapshot diverges after restore:\ngolden  %+v\nrestored %+v",
						trial, cut, len(ops), g, r)
				}
				if golden.IntervalsClosed() != restored.IntervalsClosed() {
					t.Fatalf("trial %d: closed %d vs golden %d",
						trial, restored.IntervalsClosed(), golden.IntervalsClosed())
				}
				if golden.Reestimates() != restored.Reestimates() {
					t.Fatalf("trial %d: reestimates %d vs golden %d",
						trial, restored.Reestimates(), golden.Reestimates())
				}
				gn, gok := golden.NStar()
				rn, rok := restored.NStar()
				if gok != rok || !reflect.DeepEqual(gn, rn) {
					t.Fatalf("trial %d: N* (%v,%v) vs golden (%v,%v)", trial, rn, rok, gn, gok)
				}
			}
		})
	}
}

// TestOnlineRestoreRejectsCorruption: truncated, garbage and
// magic-stripped payloads must fail with ErrStateCorrupt and leave the
// analyzer usable (cold).
func TestOnlineRestoreRejectsCorruption(t *testing.T) {
	opts := OnlineOptions{WindowIntervals: 100, ReestimateEvery: 20}
	src, err := NewOnline(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(src, genCkptOps(rand.New(rand.NewSource(7)), 300))
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	// Decodable states no Online can reach: a sample that is no delay,
	// and a cursor on a reservoir that has not wrapped yet (300 ops feed
	// each class well under reservoirSize samples).
	editSmall := func(edit func(r *reservoirState)) []byte {
		return editState(t, blob, func(st *onlineState) {
			r := st.Reservoirs["small"]
			if len(r.Samples) == 0 || len(r.Samples) >= reservoirSize {
				t.Fatalf("reservoir \"small\" holds %d samples: want a filling one", len(r.Samples))
			}
			edit(&r)
			st.Reservoirs["small"] = r
		})
	}
	cases := map[string][]byte{
		"empty":          {},
		"garbage":        []byte("not a checkpoint at all, sorry"),
		"truncated":      blob[:len(blob)/2],
		"bad-magic":      append([]byte("XXD-ONLINE-STATE\n"), blob[len(onlineStateMagic):]...),
		"nan-sample":     editSmall(func(r *reservoirState) { r.Samples[1] = math.NaN() }),
		"inf-sample":     editSmall(func(r *reservoirState) { r.Samples[0] = math.Inf(1) }),
		"neg-inf-sample": editSmall(func(r *reservoirState) { r.Samples[2] = math.Inf(-1) }),
		"filling-cursor": editSmall(func(r *reservoirState) { r.Next = 1 }),
	}
	for name, data := range cases {
		o, err := NewOnline(0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rerr := o.RestoreState(data); !errors.Is(rerr, ErrStateCorrupt) {
			t.Errorf("%s: RestoreState = %v, want ErrStateCorrupt", name, rerr)
		}
		// The failed restore must not have wedged the analyzer: it still
		// works as a cold one.
		o.Observe(trace.Visit{Server: "s", Class: "small", Arrive: 0, Depart: 2 * simnet.Millisecond})
		o.Advance(simnet.Second)
	}

	// Flipping a byte inside the gob payload must never be silently
	// accepted as valid state with different semantics-critical config:
	// it either fails to decode (corrupt) or still decodes to the same
	// validated shape. Flip a handful of positions and require no panic.
	for i := len(onlineStateMagic); i < len(blob); i += 37 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xFF
		o, err := NewOnline(0, opts)
		if err != nil {
			t.Fatal(err)
		}
		_ = o.RestoreState(mut) // must not panic; error is acceptable
	}
}

// TestOnlineRestoreRejectsMismatch: restoring into an analyzer with a
// different grid or mode must fail with ErrStateMismatch.
func TestOnlineRestoreRejectsMismatch(t *testing.T) {
	src, err := NewOnline(0, OnlineOptions{WindowIntervals: 100, ReestimateEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	mismatches := map[string]OnlineOptions{
		"window":   {WindowIntervals: 120, ReestimateEvery: 20},
		"interval": {Options: Options{Interval: 20 * simnet.Millisecond}, WindowIntervals: 100, ReestimateEvery: 20},
		"reperiod": {WindowIntervals: 100, ReestimateEvery: 25},
		"raw":      {Options: Options{RawThroughput: true}, WindowIntervals: 100, ReestimateEvery: 20},
	}
	for name, opts := range mismatches {
		o, err := NewOnline(0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rerr := o.RestoreState(blob); !errors.Is(rerr, ErrStateMismatch) {
			t.Errorf("%s: RestoreState = %v, want ErrStateMismatch", name, rerr)
		}
	}
}

// TestOnlineRestoreRejectsNewerVersion: a payload claiming a future codec
// version is refused with ErrStateVersion rather than half-decoded.
func TestOnlineRestoreRejectsNewerVersion(t *testing.T) {
	src, err := NewOnline(0, OnlineOptions{WindowIntervals: 100, ReestimateEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Marshal with a bumped version by round-tripping through the state
	// struct directly.
	blob, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(0, OnlineOptions{WindowIntervals: 100, ReestimateEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.RestoreState(blob); err != nil {
		t.Fatalf("baseline restore: %v", err)
	}
	newer := editState(t, blob, func(st *onlineState) { st.Version = onlineStateVersion + 1 })
	if rerr := o.RestoreState(newer); !errors.Is(rerr, ErrStateVersion) {
		t.Errorf("RestoreState(newer) = %v, want ErrStateVersion", rerr)
	}
}

// editState decodes a marshaled state, applies edit and re-encodes it,
// for building payloads that decode but must not restore.
func editState(t *testing.T, blob []byte, edit func(st *onlineState)) []byte {
	t.Helper()
	var st onlineState
	if err := gob.NewDecoder(bytes.NewReader(blob[len(onlineStateMagic):])).Decode(&st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	var buf bytes.Buffer
	buf.WriteString(onlineStateMagic)
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
