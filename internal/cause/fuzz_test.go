package cause

import (
	"math"
	"reflect"
	"testing"

	"transientbd/internal/simnet"
)

// fuzzSeries deterministically expands raw fuzz bytes into the shape
// core.Analysis carries per server: n-interval series of equal length on
// one 50 ms grid (each starting on a grid point), finite non-negative
// loads and throughputs, congestion exactly where load exceeds N*, POIs
// only on congested intervals, and a call graph that also names servers
// absent from the input. Exhausted bytes read as zero.
func fuzzSeries(data []byte, n int) ([]Series, map[string][]string) {
	names := []string{"apache-1", "tomcat-1", "tomcat-2", "cjdbc-1", "mysql-1", "mysql-2"}
	callees := append([]string{"ghost"}, names...)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	iv := 50 * simnet.Millisecond
	ss := make([]Series, 1+int(next())%len(names))
	down := make(map[string][]string)
	for k := range ss {
		s := Series{
			Server:    names[k],
			Start:     simnet.Time(next()%4) * simnet.Time(iv),
			Interval:  iv,
			Load:      make([]float64, n),
			TP:        make([]float64, n),
			Congested: make([]bool, n),
			POI:       make([]bool, n),
			NStar:     1 + float64(next()%32),
			TPMax:     10 * float64(next()),
			Saturated: next()&1 == 1,
		}
		for i := 0; i < n; i++ {
			b := next()
			s.Load[i] = float64(next()) / 4
			s.TP[i] = 10 * float64(next())
			s.Congested[i] = s.Load[i] > s.NStar
			s.POI[i] = s.Congested[i] && b&1 == 1
		}
		for c := next() % 3; c > 0; c-- {
			down[s.Server] = append(down[s.Server], callees[int(next())%len(callees)])
		}
		ss[k] = s
	}
	return ss, down
}

// FuzzAttribute asserts the engine's contract over arbitrary classified
// series: no panic, every confidence in (0, 1], every score finite and
// non-negative, every verdict naming an input server, and the same
// verdicts whatever order the servers arrive in.
func FuzzAttribute(f *testing.F) {
	// Two servers: apache-1 congests every 8th stretch of intervals (load
	// 20 over N* 10) and calls tomcat-1, which reads idle.
	periodic := []byte{1, 0, 9, 200, 0}
	for i := 0; i < 96; i++ {
		load := byte(20)
		if i%8 < 3 {
			load = 80
		}
		periodic = append(periodic, byte(i), load, 90)
	}
	periodic = append(periodic, 1, 2)
	f.Add(periodic, uint8(96))
	f.Add([]byte("arbitrary seed bytes for the corpus........"), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		ss, down := fuzzSeries(data, int(n))
		got := Attribute(ss, Options{Downstream: down})
		inputs := make(map[string]bool, len(ss))
		for _, s := range ss {
			inputs[s.Server] = true
		}
		for _, v := range got {
			if !(v.Confidence > 0 && v.Confidence <= 1) {
				t.Fatalf("%s on %s: confidence %v outside (0, 1]", v.Kind, v.Server, v.Confidence)
			}
			if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) || v.Score < 0 {
				t.Fatalf("%s on %s: score %v", v.Kind, v.Server, v.Score)
			}
			if !inputs[v.Server] {
				t.Fatalf("verdict names %q, not an input server", v.Server)
			}
		}
		rev := make([]Series, len(ss))
		for i, s := range ss {
			rev[len(ss)-1-i] = s
		}
		if again := Attribute(rev, Options{Downstream: down}); !reflect.DeepEqual(got, again) {
			t.Fatalf("verdicts depend on input order:\n%v\nvs\n%v", got, again)
		}
	})
}
