package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Property tests for the analysis core: invariances the paper's pipeline
// must hold by construction. Each is checked over seeded generated
// workloads rather than hand-picked fixtures, so the properties are
// exercised across idle, normal and congested regimes at once.

// propVisits generates a seeded mixed workload for one server: a steady
// trickle plus a few dense bursts, classes drawn from a calibrated-style
// 2/4/8 ms set.
func propVisits(seed int64, n int) []trace.Visit {
	rng := rand.New(rand.NewSource(seed))
	classes := []struct {
		name string
		svc  simnet.Duration
	}{
		{"small", 2 * simnet.Millisecond},
		{"mid", 4 * simnet.Millisecond},
		{"big", 8 * simnet.Millisecond},
	}
	span := int64(10 * simnet.Second)
	visits := make([]trace.Visit, 0, n)
	for i := 0; i < n; i++ {
		c := classes[rng.Intn(len(classes))]
		var arrive simnet.Time
		if rng.Intn(4) == 0 {
			// Burst: cluster arrivals around one of five hot spots.
			hot := simnet.Time((rng.Int63n(5) + 1) * span / 6)
			arrive = hot + simnet.Time(rng.Int63n(int64(100*simnet.Millisecond)))
		} else {
			arrive = simnet.Time(rng.Int63n(span))
		}
		depart := arrive + simnet.Time(c.svc) + simnet.Time(rng.Int63n(int64(50*simnet.Millisecond)))
		visits = append(visits, trace.Visit{
			Server: "s",
			Class:  c.name,
			Arrive: arrive,
			Depart: depart,
		})
	}
	return visits
}

var propSvc = ServiceTimes{
	"small": 2 * simnet.Millisecond,
	"mid":   4 * simnet.Millisecond,
	"big":   8 * simnet.Millisecond,
}

// analysisFingerprint reduces an Analysis to the fields the invariances
// quantify over (series values, N*, classifications), dropping the
// absolute time grid so shifted analyses can be compared directly.
type analysisFingerprint struct {
	Load, TP           []float64
	NStar              NStarResult
	States             []IntervalState
	POIs               []int
	CongestedIntervals int
	CongestedFraction  float64
}

func fingerprint(a *Analysis) analysisFingerprint {
	return analysisFingerprint{
		Load:               a.Load.Values(),
		TP:                 a.TP.Values(),
		NStar:              a.NStar,
		States:             a.States,
		POIs:               a.POIs,
		CongestedIntervals: a.CongestedIntervals,
		CongestedFraction:  a.CongestedFraction,
	}
}

// TestTimeShiftInvariance: shifting every timestamp (and the window) by a
// constant leaves load, throughput, N* and every classification
// bit-identical — the pipeline depends on relative time only. The shift
// deliberately includes a sub-interval remainder: the grid is anchored at
// the window start, so boundary decomposition shifts with it.
func TestTimeShiftInvariance(t *testing.T) {
	shifts := []simnet.Time{
		simnet.Time(60 * simnet.Minute),
		simnet.Time(60*simnet.Minute + 7*simnet.Millisecond + 13*simnet.Microsecond),
		simnet.Time(3 * simnet.Minute),
	}
	for seed := int64(1); seed <= 3; seed++ {
		visits := propVisits(seed, 2000)
		w := Window{Start: 0, End: 10*simnet.Second + simnet.Second}
		base, err := AnalyzeServer("s", visits, w, Options{ServiceTimes: propSvc})
		if err != nil {
			t.Fatalf("seed %d: base analysis: %v", seed, err)
		}
		for _, shift := range shifts {
			shifted := make([]trace.Visit, len(visits))
			for i, v := range visits {
				v.Arrive += shift
				v.Depart += shift
				shifted[i] = v
			}
			sw := Window{Start: w.Start + shift, End: w.End + shift}
			got, err := AnalyzeServer("s", shifted, sw, Options{ServiceTimes: propSvc})
			if err != nil {
				t.Fatalf("seed %d shift %v: %v", seed, shift, err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(base)) {
				t.Errorf("seed %d: analysis not invariant under shift %v", seed, shift)
			}
		}
	}
}

// TestShardMergeAssociativity: splitting a server's visits into subsets
// and concatenating them back in any order yields a bit-identical
// analysis — the property that lets both the batch pipeline shard record
// conversion and the streaming runtime partition ingestion without
// affecting verdicts. Per-interval sums are exact (integer microseconds
// and unit-multiple work units in float64), so this is equality, not
// tolerance.
func TestShardMergeAssociativity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		visits := propVisits(seed, 3000)
		w := Window{Start: 0, End: 10*simnet.Second + simnet.Second}
		base, err := AnalyzeServer("s", visits, w, Options{ServiceTimes: propSvc})
		if err != nil {
			t.Fatalf("seed %d: base analysis: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 101))
		for trial := 0; trial < 4; trial++ {
			// Partition into k shards by a random assignment, then
			// concatenate the shards in a random order.
			k := 2 + rng.Intn(6)
			shards := make([][]trace.Visit, k)
			for _, v := range visits {
				i := rng.Intn(k)
				shards[i] = append(shards[i], v)
			}
			rng.Shuffle(k, func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
			var merged []trace.Visit
			for _, s := range shards {
				merged = append(merged, s...)
			}
			got, err := AnalyzeServer("s", merged, w, Options{ServiceTimes: propSvc})
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(base)) {
				t.Errorf("seed %d trial %d: analysis depends on shard concatenation order (k=%d)", seed, trial, k)
			}
		}
	}
}

// TestOnlineSnapshotOrderInvariance extends the associativity property to
// the streaming analyzer: feeding the same visits in any order produces a
// bit-identical Snapshot, because the ring sums are order-independent and
// the decision stage is shared with the batch path.
func TestOnlineSnapshotOrderInvariance(t *testing.T) {
	visits := propVisits(11, 2000)
	opts := OnlineOptions{
		Options:         Options{ServiceTimes: propSvc},
		WindowIntervals: 4096,
	}
	end := simnet.Time(0)
	for _, v := range visits {
		if v.Depart > end {
			end = v.Depart
		}
	}
	iv := 50 * simnet.Millisecond
	end = (end/simnet.Time(iv) + 1) * simnet.Time(iv)

	run := func(order []trace.Visit) *Analysis {
		o, err := NewOnline(0, opts)
		if err != nil {
			t.Fatalf("NewOnline: %v", err)
		}
		for _, v := range order {
			o.Observe(v)
		}
		o.Advance(end)
		return o.Snapshot()
	}

	base := run(visits)
	if base == nil {
		t.Fatalf("base snapshot is nil")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]trace.Visit(nil), visits...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := run(shuffled); !reflect.DeepEqual(got, base) {
			t.Errorf("trial %d: snapshot depends on observation order", trial)
		}
	}
}

// TestOnlineSelfEstimatedOrderInvariance is the same property for a
// self-estimating analyzer fed as a stream shard feeds it: barrier by
// barrier, with AdvanceAppend between barriers, each barrier's visits in
// a different order. The Snapshot must be bit-identical, because the
// service-time table is rebuilt only as intervals close and each
// interval's work is an exact sum.
func TestOnlineSelfEstimatedOrderInvariance(t *testing.T) {
	const (
		iv      = 50 * simnet.Millisecond
		barrier = 8 * iv
		lag     = 2 * iv
	)
	visits := propVisits(11, 4000)
	slices.SortFunc(visits, trace.CompareDepart)
	end := (visits[len(visits)-1].Depart/barrier + 2) * barrier
	for name, opts := range map[string]OnlineOptions{
		"defaults":          {},
		"wrapping ring":     {WindowIntervals: 120, ReestimateEvery: 40},
		"epoch over window": {WindowIntervals: 40, ReestimateEvery: 60},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(rng *rand.Rand) *Analysis {
				o, err := NewOnline(0, opts)
				if err != nil {
					t.Fatal(err)
				}
				var alerts []Alert
				rest := visits
				for b := barrier; b <= end; b += barrier {
					n := 0
					for n < len(rest) && rest[n].Depart < b {
						n++
					}
					batch := slices.Clone(rest[:n])
					rest = rest[n:]
					if rng != nil {
						rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
					}
					for _, v := range batch {
						o.Observe(v)
					}
					alerts = o.AdvanceAppend(b-lag, alerts[:0])
				}
				return o.Snapshot()
			}
			base := run(nil)
			if base == nil || len(base.ServiceTimes) != 3 || base.CongestedIntervals == 0 {
				t.Fatalf("workload exercises too little: %+v", base)
			}
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 3; trial++ {
				if got := run(rng); !reflect.DeepEqual(got, base) {
					t.Errorf("trial %d: snapshot depends on the order within barriers", trial)
				}
			}
		})
	}
}
