package transientbd

import (
	"math"
	"testing"
	"time"
)

func TestClassesDrillDown(t *testing.T) {
	recs := busyTrace() // class "q" on server "db" with a burst phase
	stats, err := Classes(recs, "db", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("classes = %d, want 1", len(stats))
	}
	q := stats[0]
	if q.Class != "q" || q.Count == 0 {
		t.Errorf("stat = %+v", q)
	}
	if q.CongestedShare <= 0 {
		t.Error("burst phase produced no congested completions")
	}
	if q.MeanResidence < 10*time.Millisecond {
		t.Errorf("mean residence = %v, want >= service time", q.MeanResidence)
	}
	if q.P95Residence < q.MeanResidence {
		t.Error("p95 below mean")
	}
	if q.CongestedSlowdown <= 1 {
		t.Errorf("slowdown = %.2f, want > 1 (queueing during the burst)", q.CongestedSlowdown)
	}
}

// TestClassesHonoursServiceTimes: with a calibrated table whose work
// units differ from the self-estimate, Classes must judge completions
// against the congestion episodes Analyze reports under the same Config —
// not against a second, uncalibrated analysis of the server.
func TestClassesHonoursServiceTimes(t *testing.T) {
	var recs []Record
	for _, r := range multiServerRecords() {
		if r.Server == "tier-0" {
			recs = append(recs, r)
		}
	}
	// The trace's own delays say long = 4 × short; the table says the
	// opposite, so normalized throughput — and with it N* and the
	// congested intervals — differs from the self-estimated run.
	cfg := Config{ServiceTimes: map[string]time.Duration{
		"long": 2 * time.Millisecond, "short": 8 * time.Millisecond,
	}}
	inEpisodes := func(cfg Config) int {
		t.Helper()
		report, err := Analyze(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			for _, ep := range report.PerServer["tier-0"].Episodes {
				if r.Depart >= ep.Start && r.Depart < ep.Start+ep.Length {
					n++
					break
				}
			}
		}
		return n
	}
	want := inEpisodes(cfg)
	if want == 0 || want == inEpisodes(Config{}) {
		t.Fatalf("calibrated table does not change the congested completions (%d); test is vacuous", want)
	}
	stats, err := Classes(recs, "tier-0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, c := range stats {
		got += int(math.Round(float64(c.Count) * c.CongestedShare))
	}
	if got != want {
		t.Errorf("Classes counts %d congested completions, Analyze's episodes hold %d", got, want)
	}
}

func TestClassesValidation(t *testing.T) {
	if _, err := Classes(nil, "", Config{}); err == nil {
		t.Error("want error for empty server")
	}
	if _, err := Classes(busyTrace(), "nosuch", Config{}); err == nil {
		t.Error("want error for unknown server")
	}
	bad := []Record{{Server: "db", Arrive: time.Second, Depart: 0}}
	if _, err := Classes(bad, "db", Config{}); err == nil {
		t.Error("want error for reversed timestamps")
	}
}

func TestChooseIntervalPublicAPI(t *testing.T) {
	recs := busyTrace()
	best, table, err := ChooseInterval(recs, "db", nil)
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 {
		t.Errorf("best interval = %v", best)
	}
	if len(table) == 0 {
		t.Fatal("empty scoring table")
	}
	var bestScore float64
	for _, c := range table {
		if c.Score > bestScore {
			bestScore = c.Score
		}
	}
	for _, c := range table {
		if c.Interval == best && c.Score != bestScore {
			t.Errorf("winner %v does not carry the top score", best)
		}
	}
	if _, _, err := ChooseInterval(recs, "", nil); err == nil {
		t.Error("want error for empty server")
	}
	if _, _, err := ChooseInterval(recs, "nosuch", nil); err == nil {
		t.Error("want error for unknown server")
	}
}
