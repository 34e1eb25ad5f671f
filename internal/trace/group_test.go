package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"transientbd/internal/simnet"
)

// naiveGroups is the reference grouping: one append per visit into a map.
func naiveGroups(visits []Visit) map[string][]Visit {
	out := make(map[string][]Visit)
	for _, v := range visits {
		out[v.Server] = append(out[v.Server], v)
	}
	return out
}

func checkGroups(t *testing.T, visits []Visit, got map[string][]Visit) {
	t.Helper()
	want := naiveGroups(visits)
	if len(got) != len(want) {
		t.Fatalf("%d servers, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if !slices.Equal(g, w) {
			t.Fatalf("server %s: %d visits differ from the %d in input order", name, len(g), len(w))
		}
		if len(g) != cap(g) {
			t.Fatalf("server %s: len %d, cap %d", name, len(g), cap(g))
		}
	}
}

// skewedVisits draws n visits over the named servers, server i picked
// with weight weights[i], numbered in input order so any reordering shows.
func skewedVisits(rng *rand.Rand, n int, names []string, weights []int) []Visit {
	total := 0
	for _, w := range weights {
		total += w
	}
	visits := make([]Visit, n)
	for i := range visits {
		r := rng.Intn(total)
		s := 0
		for r >= weights[s] {
			r -= weights[s]
			s++
		}
		at := simnet.Time(i) * simnet.Microsecond
		visits[i] = Visit{Server: names[s], TxnID: int64(i + 1), Arrive: at, Depart: at + simnet.Time(rng.Intn(5000))}
	}
	return visits
}

func TestGrouperMatchesNaiveGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name    string
		n       int
		servers int
	}{
		{"empty", 0, 1},
		{"one visit", 1, 1},
		{"one server across chunks", 3*groupChunk + 17, 1},
		{"one server one chunk exactly", groupChunk, 1},
		{"interleaved", 4*groupChunk + 5, 6},
		{"many servers", 2*groupChunk + 3, 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for round := range 4 {
				names := make([]string, c.servers)
				weights := make([]int, c.servers)
				for i := range names {
					names[i] = fmt.Sprintf("s%d", i)
					weights[i] = 1 + rng.Intn(1<<uint(i%8))
				}
				visits := skewedVisits(rng, c.n, names, weights)
				var g Grouper
				for _, v := range visits {
					g.Add(v)
				}
				checkGroups(t, visits, g.Groups())
				if got := g.Groups(); len(got) != 0 {
					t.Fatalf("round %d: Groups after Groups returned %d servers", round, len(got))
				}
				checkGroups(t, visits, PerServer(visits))
			}
		})
	}
}

// TestGrouperServerCardinality bounds what a server seen once costs: a
// trace naming 100 000 servers must not cost a chunk each (8 192 visits,
// 590 kB).
func TestGrouperServerCardinality(t *testing.T) {
	const servers, maxBytesPerServer = 100_000, 512
	visits := make([]Visit, servers)
	for i := range visits {
		visits[i] = Visit{Server: fmt.Sprintf("server-%d", i), Arrive: simnet.Time(i), Depart: simnet.Time(i + 1)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups := PerServer(visits)
	runtime.ReadMemStats(&after)
	if len(groups) != servers {
		t.Fatalf("%d servers, want %d", len(groups), servers)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / servers; per > maxBytesPerServer {
		t.Errorf("grouping allocated %d bytes per server, want at most %d", per, maxBytesPerServer)
	}
}

var benchGroups map[string][]Visit

// BenchmarkGrouper groups ≈ 800 k visits over six servers skewed the way
// an RUBBoS trace is (the middleware tier sees seven visits in twenty, a
// web server one in ten), as tbdetect -in groups the benchmark's trace.
func BenchmarkGrouper(b *testing.B) {
	names := []string{"apache", "tomcat-1", "tomcat-2", "cjdbc", "mysql-1", "mysql-2"}
	visits := skewedVisits(rand.New(rand.NewSource(7)), 800_000, names, []int{11, 5, 5, 39, 20, 20})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		benchGroups = PerServer(visits)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(visits)), "ns/record")
}
