// Package cause turns detected congestion episodes into ranked
// root-cause verdicts. It consumes exactly what the shared
// classification stages already produce per server — load/throughput
// series, interval states, POIs, and the N* estimate — and fingerprints
// the *shape* of congestion: flat-top saturation plateaus (bounded
// pools), periodic freezes with downstream starvation (lock convoys),
// periodic plateaus across a whole tier (cache stampedes), asymmetric
// periodic freezes on one replica (noisy neighbors), unbounded queue
// growth (open-loop overload), and late-onset transients that heal
// (autoscale slow-start). Every feature is a pure function of the
// series, so verdicts are deterministic and invariant under time shift;
// batch and streaming callers produce field-identical verdicts from
// equivalent snapshots.
package cause

import (
	"fmt"
	"sort"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
)

// Kind names a root-cause fingerprint. The scenario kinds match the
// ground-truth vocabulary emitted by internal/ntier.
type Kind string

const (
	// KindPoolExhaustion: load flat-tops at a hard concurrency bound
	// while throughput plateaus — a bounded pool clips the tier.
	KindPoolExhaustion Kind = "conn-pool-exhaustion"
	// KindLockConvoy: periodic freezes during which the tier's
	// downstream starves — everything is parked behind a lock.
	KindLockConvoy Kind = "lock-convoy"
	// KindCacheStampede: periodic saturation plateaus (throughput at
	// max, not frozen) as a miss storm lands after each invalidation.
	KindCacheStampede Kind = "cache-stampede"
	// KindNoisyNeighbor: periodic freezes on one replica while its
	// peers in the same tier stay clean.
	KindNoisyNeighbor Kind = "noisy-neighbor"
	// KindOverload: one long episode with load diverging far past N* —
	// demand exceeds capacity with no closed-loop relief.
	KindOverload Kind = "overload"
	// KindSlowStart: a server that appears mid-window, congests
	// immediately, then heals — a cold instance warming up.
	KindSlowStart Kind = "autoscale-slow-start"
	// KindGCPause: freeze-dominated congestion without the convoy's
	// downstream starvation or the neighbor's peer asymmetry.
	KindGCPause Kind = "gc-pause"
	// KindSaturation: congestion with no sharper fingerprint.
	KindSaturation Kind = "saturation"
)

// Series is one server's classified interval series — the attribution
// engine's entire view of a server.
type Series struct {
	Server    string
	Start     simnet.Time
	Interval  simnet.Duration
	Load      []float64
	TP        []float64
	Congested []bool
	POI       []bool
	NStar     float64
	TPMax     float64
	Saturated bool
}

// FromAnalysis adapts a per-server result — from either engine, they
// report the one type — reading congestion and freezes from the interval
// states themselves.
func FromAnalysis(a *core.Analysis) Series {
	s := Series{
		Server:    a.Server,
		Start:     a.Window.Start,
		Interval:  a.Interval,
		Load:      a.Load.Values(),
		TP:        a.TP.Values(),
		NStar:     a.NStar.NStar,
		TPMax:     a.NStar.TPMax,
		Saturated: a.NStar.Saturated,
	}
	s.Congested = make([]bool, len(a.States))
	for i, st := range a.States {
		s.Congested[i] = st == core.StateCongested
	}
	s.POI = poiFlags(len(a.States), a.POIs)
	return s
}

// AttributeAnalyses is Attribute over per-server results, each adapted
// through FromAnalysis; the order of as does not matter.
func AttributeAnalyses(as []*core.Analysis, opts Options) []Verdict {
	ss := make([]Series, len(as))
	for i, a := range as {
		ss[i] = FromAnalysis(a)
	}
	return Attribute(ss, opts)
}

func poiFlags(n int, pois []int) []bool {
	flags := make([]bool, n)
	for _, i := range pois {
		if i >= 0 && i < n {
			flags[i] = true
		}
	}
	return flags
}

// Options tunes Attribute.
type Options struct {
	// Downstream maps a server name to the servers it calls. When set,
	// verdicts on a server whose congestion coincides with a congested
	// downstream server are discounted (the mirror effect — the root is
	// below them). The explained share is the largest co-congestion with
	// any single callee: the fraction of the server's congested intervals
	// during which that one callee is congested too. Names absent from
	// the input explain nothing. Callers derive it from the trace being
	// analysed: trace.CallGraphBuilder over visits that carry TxnID
	// linkage, or trace.CallGraph over a wire capture.
	Downstream map[string][]string
}

// Verdict is one ranked root-cause claim.
type Verdict struct {
	// Kind is the fingerprinted cause.
	Kind Kind
	// Server is where the cause acts.
	Server string
	// Confidence in (0, 1]: how sharply the fingerprint matched.
	Confidence float64
	// Score ranks verdicts across servers: congested fraction ×
	// unexplained share × confidence.
	Score float64
	// Evidence is human-readable support, free of absolute timestamps.
	Evidence []string
}

const (
	minIntervals         = 8    // the least series length worth fingerprinting
	minCongestedFraction = 0.02 // the congested fraction below which a server gets no verdict
)

// Attribute fingerprints every congested server and returns verdicts
// ranked most-likely-root-cause first. It is a pure function of its
// inputs: same series (modulo a uniform time shift) → same verdicts.
func Attribute(servers []Series, opts Options) []Verdict {
	ordered := make([]Series, len(servers))
	copy(ordered, servers)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Server < ordered[j].Server })

	fs := make([]features, len(ordered))
	for i := range ordered {
		fs[i] = extract(ordered[i])
	}
	ctx := &attrCtx{ss: ordered, fs: fs, opts: opts, oconf: make([]float64, len(ordered))}
	for i := range ordered {
		ctx.oconf[i] = overloadStrength(&fs[i])
	}

	var out []Verdict
	for i := range ordered {
		s := &ordered[i]
		f := &fs[i]
		if f.n < minIntervals || f.cf < minCongestedFraction {
			continue
		}
		x := crossFeatures(i, ordered, fs)
		cands, _ := ctx.detect(i, x)
		explained := explainedFraction(i, ordered, fs, opts.Downstream)
		for _, c := range cands {
			if c.Confidence < 0.2 {
				continue
			}
			if c.Server == "" {
				c.Server = s.Server
			}
			// Specific fingerprints are partly self-certifying; only the
			// generic kinds are fully discounted by a congested downstream
			// (the mirror effect — the root is below them). Pool verdicts
			// are exempt entirely: they already name the bottom of the
			// chain, and the caller's downstream congestion is their
			// evidence, not a competing explanation.
			discount := 1 - explained
			if c.Kind != KindSaturation && c.Kind != KindGCPause {
				discount = 1 - 0.5*explained
			}
			if c.Kind == KindPoolExhaustion && c.Server != s.Server {
				discount = 1
			}
			c.Score = f.cf * discount * c.Confidence
			out = append(out, c)
		}
	}
	// Several callers can witness the same capped server: keep the
	// strongest claim per (kind, server).
	best := make(map[[2]string]int, len(out))
	deduped := out[:0]
	for _, v := range out {
		key := [2]string{string(v.Kind), v.Server}
		if j, ok := best[key]; ok {
			if v.Score > deduped[j].Score {
				deduped[j] = v
			}
			continue
		}
		best[key] = len(deduped)
		deduped = append(deduped, v)
	}
	out = deduped
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// explainedFraction is the share of a server's congested intervals that
// coincide with congestion on a direct downstream server.
func explainedFraction(i int, ss []Series, fs []features, downstream map[string][]string) float64 {
	if downstream == nil {
		return 0
	}
	best := 0.0
	for _, d := range downstream[ss[i].Server] {
		for j := range ss {
			if ss[j].Server != d || fs[j].n == 0 {
				continue
			}
			if c := coCongestion(&ss[i], &ss[j]); c > best {
				best = c
			}
		}
	}
	return best
}

// coCongestion returns the fraction of a's congested intervals during
// which b is also congested, aligned on absolute time.
func coCongestion(a, b *Series) float64 {
	if a.Interval <= 0 || a.Interval != b.Interval {
		return 0
	}
	off := int((b.Start - a.Start) / simnet.Time(a.Interval))
	cong, co := 0, 0
	for i, c := range a.Congested {
		if !c {
			continue
		}
		cong++
		j := i - off
		if j >= 0 && j < len(b.Congested) && b.Congested[j] {
			co++
		}
	}
	if cong == 0 {
		return 0
	}
	return float64(co) / float64(cong)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func pct(v float64) float64 { return 100 * v }

func fmtDur(d simnet.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}
