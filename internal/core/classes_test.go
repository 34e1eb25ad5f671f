package core

import (
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

func TestClassBreakdownSeparatesVictims(t *testing.T) {
	// Server with a freeze at [10s, 10.4s): class "victim" completes only
	// around the freeze; class "lucky" completes only in the quiet phase.
	visits := synthServer(synthConfig{
		service:     5 * ms,
		cores:       2,
		baseRate:    280,
		horizon:     30 * simnet.Second,
		freezeStart: 10 * simnet.Second,
		freezeEnd:   10*simnet.Second + 400*ms,
		seed:        9,
	})
	// Tag visits near the freeze drain as "victim", the rest "lucky".
	for i := range visits {
		if visits[i].Depart >= 10*simnet.Second && visits[i].Depart < 12*simnet.Second {
			visits[i].Class = "victim"
		} else {
			visits[i].Class = "lucky"
		}
	}
	w := Window{Start: 0, End: 30 * simnet.Second}
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CongestedIntervals == 0 {
		t.Fatal("no congestion to break down")
	}
	breakdown := ClassBreakdown(visits, a)
	if len(breakdown) != 2 {
		t.Fatalf("classes = %d, want 2", len(breakdown))
	}
	if breakdown[0].Class != "victim" {
		t.Errorf("worst class = %s, want victim", breakdown[0].Class)
	}
	victim, lucky := breakdown[0], breakdown[1]
	if victim.CongestedShare <= lucky.CongestedShare {
		t.Errorf("victim share %.3f not above lucky %.3f",
			victim.CongestedShare, lucky.CongestedShare)
	}
	if victim.MeanResidence <= lucky.MeanResidence {
		t.Errorf("victim residence %v not above lucky %v",
			victim.MeanResidence, lucky.MeanResidence)
	}
	if victim.Count == 0 || lucky.Count == 0 {
		t.Error("empty class counts")
	}
	if victim.P95Residence < victim.MeanResidence {
		t.Error("p95 below mean")
	}
}

func TestClassBreakdownSlowdownRatio(t *testing.T) {
	// One class, half its completions inside a congested region with 3×
	// the residence.
	var visits []trace.Visit
	// Quiet phase: short residences.
	for at := simnet.Time(0); at < 5*simnet.Second; at += 50 * ms {
		visits = append(visits, trace.Visit{
			Server: "s", Class: "q", Arrive: at, Depart: at + 5*ms,
		})
	}
	// Overloaded phase: many concurrent, long residences.
	for at := 5 * simnet.Second; at < 7*simnet.Second; at += 5 * ms {
		visits = append(visits, trace.Visit{
			Server: "s", Class: "q", Arrive: at, Depart: at + 60*ms,
		})
	}
	w := Window{Start: 0, End: 8 * simnet.Second}
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd := ClassBreakdown(visits, a)
	if len(bd) != 1 {
		t.Fatalf("classes = %d, want 1", len(bd))
	}
	if a.CongestedIntervals > 0 && bd[0].CongestedSlowdown <= 1.5 {
		t.Errorf("slowdown = %.2f, want > 1.5 (congested completions are slower)",
			bd[0].CongestedSlowdown)
	}
}

func TestClassBreakdownIgnoresOutOfWindow(t *testing.T) {
	visits := []trace.Visit{
		{Server: "s", Class: "in", Arrive: ms, Depart: 2 * ms},
		{Server: "s", Class: "out", Arrive: ms, Depart: 10 * simnet.Second},
	}
	a, err := AnalyzeServer("s", visits, Window{Start: 0, End: simnet.Second}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd := ClassBreakdown(visits, a)
	if len(bd) != 1 || bd[0].Class != "in" {
		t.Errorf("breakdown = %+v, want only class 'in'", bd)
	}
}
