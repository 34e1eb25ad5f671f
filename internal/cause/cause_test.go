package cause

import (
	"reflect"
	"testing"

	"transientbd/internal/simnet"
)

// synthSeries builds a deterministic two-server feed: mysql-1 congests
// periodically (every 8th stretch of intervals, the antagonist shape)
// while tomcat-1 stays clean. Enough intervals for every fingerprint to
// engage.
func synthSeries(start simnet.Time) []Series {
	const n = 96
	iv := 50 * simnet.Millisecond
	hot := Series{
		Server:    "mysql-1",
		Start:     start,
		Interval:  iv,
		Load:      make([]float64, n),
		TP:        make([]float64, n),
		Congested: make([]bool, n),
		POI:       make([]bool, n),
		NStar:     120,
		TPMax:     2400,
	}
	cold := Series{
		Server:   "tomcat-1",
		Start:    start,
		Interval: iv,
		Load:     make([]float64, n),
		TP:       make([]float64, n),
		NStar:    400,
		TPMax:    1300,
	}
	cold.Congested = make([]bool, n)
	cold.POI = make([]bool, n)
	for i := 0; i < n; i++ {
		hot.Load[i] = 60
		hot.TP[i] = 2300
		if i%8 < 3 {
			hot.Load[i] = 180
			hot.TP[i] = 900
			hot.Congested[i] = true
		}
		cold.Load[i] = 120
		cold.TP[i] = 1200
	}
	hot.POI[8] = true
	return []Series{hot, cold}
}

// TestAttributeDeterministic asserts the ranking is a pure function of
// its input: two calls over the same feed — one with the server order
// reversed — must produce deep-equal verdict lists.
func TestAttributeDeterministic(t *testing.T) {
	a := Attribute(synthSeries(0), Options{})
	if len(a) == 0 {
		t.Fatal("synthetic feed produced no verdicts")
	}
	b := Attribute(synthSeries(0), Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ across identical calls:\n%v\nvs\n%v", a, b)
	}
	rev := synthSeries(0)
	rev[0], rev[1] = rev[1], rev[0]
	c := Attribute(rev, Options{})
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("verdicts depend on input order:\n%v\nvs\n%v", a, c)
	}
}

// TestAttributeTimeShiftInvariant asserts verdicts depend only on the
// shape of the feed, not on where it sits on the clock: shifting every
// series start by a uniform offset must not change a single field
// (Evidence included — it is documented as free of absolute timestamps).
func TestAttributeTimeShiftInvariant(t *testing.T) {
	base := Attribute(synthSeries(0), Options{})
	if len(base) == 0 {
		t.Fatal("synthetic feed produced no verdicts")
	}
	for _, shift := range []simnet.Time{simnet.Time(simnet.Second), simnet.Time(simnet.Minute), simnet.Time(90 * simnet.Minute)} {
		shifted := Attribute(synthSeries(shift), Options{})
		if !reflect.DeepEqual(base, shifted) {
			t.Fatalf("shift %v changed verdicts:\n%v\nvs\n%v", shift, base, shifted)
		}
	}
}

// flat is one server's 96-interval series on the 50 ms grid: a steady
// load of 5 under N* = 10, congested (load 20) over intervals [from, to).
// With freeze those intervals are also POIs whose throughput collapses.
func flat(server string, from, to int, freeze bool) Series {
	const n = 96
	s := Series{
		Server:    server,
		Interval:  50 * simnet.Millisecond,
		Load:      make([]float64, n),
		TP:        make([]float64, n),
		Congested: make([]bool, n),
		POI:       make([]bool, n),
		NStar:     10,
		TPMax:     120,
	}
	for i := range s.Load {
		s.Load[i], s.TP[i] = 5, 100
		if i >= from && i < to {
			s.Load[i], s.Congested[i], s.POI[i] = 20, true, freeze
			if freeze {
				s.TP[i] = 0
			}
		}
	}
	return s
}

// TestAttributeRootCauseBlamesDownstream: a two-server chain where the
// downstream "db" freezes over intervals [40, 52) and the upstream
// "app", whose threads block on it, congests over [40, 64) — the freeze
// plus its drain. Without the call graph app leads on raw congestion;
// with it, attribution must blame db.
func TestAttributeRootCauseBlamesDownstream(t *testing.T) {
	ss := []Series{flat("app", 40, 64, false), flat("db", 40, 52, true)}
	if raw := Attribute(ss, Options{}); len(raw) == 0 || raw[0].Server != "app" {
		t.Fatalf("fixture: without a call graph app should lead, got %+v", raw)
	}
	down := map[string][]string{"app": {"db"}}
	fs := []features{extract(ss[0]), extract(ss[1])}
	// The app's congestion is mostly explained by the db's.
	if e := explainedFraction(0, ss, fs, down); e < 0.5 {
		t.Errorf("app explained fraction = %.3f, want mostly explained", e)
	}
	// The db has no dependencies: nothing explains it away.
	if e := explainedFraction(1, ss, fs, down); e != 0 {
		t.Errorf("db explained fraction = %.3f, want 0", e)
	}
	vs := Attribute(ss, Options{Downstream: down})
	if len(vs) == 0 || vs[0].Server != "db" {
		t.Fatalf("root cause = %+v, want db first", vs)
	}
	for _, v := range vs {
		if v.Server == "app" && v.Score >= vs[0].Score {
			t.Errorf("app %s score %.3f not below db score %.3f", v.Kind, v.Score, vs[0].Score)
		}
	}
}

// TestAttributeRootCauseNoDependencies: without a call graph nothing is
// explained away — every verdict scores congested fraction × confidence.
func TestAttributeRootCauseNoDependencies(t *testing.T) {
	s := synthSeries(0)[0]
	vs := Attribute([]Series{s}, Options{})
	if len(vs) == 0 {
		t.Fatal("surging server produced no verdicts")
	}
	cf := extract(s).cf
	for _, v := range vs {
		if v.Score != cf*v.Confidence {
			t.Errorf("%s score %.4f != congested fraction %.3f × confidence %.3f", v.Kind, v.Score, cf, v.Confidence)
		}
	}
}

// TestAttributeRootCauseUnknownDependencyIgnored: a callee absent from
// the input explains nothing.
func TestAttributeRootCauseUnknownDependencyIgnored(t *testing.T) {
	ss := synthSeries(0)[:1]
	want := Attribute(ss, Options{})
	got := Attribute(ss, Options{Downstream: map[string][]string{"mysql-1": {"ghost"}}})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unknown dependency must not explain anything:\n%v\nvs\n%v", got, want)
	}
}

// TestAttributeDiscountsSpecificKindsByHalf: mysql-1 freezes
// periodically while its peer mysql-2 stays clean (a noisy-neighbor
// fingerprint), and its one callee congests in exactly the same
// intervals. A specific fingerprint is partly self-certifying, so its
// score is halved; a generic one is explained away entirely.
func TestAttributeDiscountsSpecificKindsByHalf(t *testing.T) {
	ss := synthSeries(0)
	ss[1].Server = "mysql-2"
	callee := ss[0]
	callee.Server = "disk-1"
	ss = append(ss, callee)
	cf := extract(ss[0]).cf
	specific := 0
	for _, v := range Attribute(ss, Options{Downstream: map[string][]string{"mysql-1": {"disk-1"}}}) {
		if v.Server != "mysql-1" {
			continue
		}
		want := 0.0
		if v.Kind != KindSaturation && v.Kind != KindGCPause {
			want = cf * 0.5 * v.Confidence
			specific++
		}
		if v.Score != want {
			t.Errorf("%s on mysql-1: score %.4f, want %.4f", v.Kind, v.Score, want)
		}
	}
	if specific == 0 {
		t.Fatal("fixture: no specific fingerprint on mysql-1")
	}
}

// TestAttributeKeepsPoolVerdictsWhole: tomcat-1 congests in step with
// its callee cjdbc-1 while its other callee mysql-1 sits pinned at a hard
// cap. The pool verdict names mysql-1, the bottom of the chain, so the
// caller's co-congestion is its evidence, not a competing explanation:
// its score is not discounted.
func TestAttributeKeepsPoolVerdictsWhole(t *testing.T) {
	caller := flat("tomcat-1", 20, 56, false)
	pool := flat("mysql-1", 0, 0, false)
	for i := 20; i < 56; i++ {
		pool.Load[i] = 8
	}
	ss := []Series{caller, flat("cjdbc-1", 20, 56, false), pool}
	down := map[string][]string{"tomcat-1": {"cjdbc-1", "mysql-1"}}
	fs := []features{extract(ss[0]), extract(ss[1]), extract(ss[2])}
	if e := explainedFraction(0, ss, fs, down); e != 1 {
		t.Fatalf("fixture: caller explained fraction = %.3f, want 1", e)
	}
	for _, v := range Attribute(ss, Options{Downstream: down}) {
		if v.Kind != KindPoolExhaustion || v.Server != "mysql-1" {
			continue
		}
		if want := fs[0].cf * v.Confidence; v.Score != want {
			t.Errorf("pool verdict score %.4f, want %.4f undiscounted", v.Score, want)
		}
		return
	}
	t.Fatal("no pool verdict on mysql-1")
}
