package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"transientbd/internal/simnet"
)

func TestStepAverageConstant(t *testing.T) {
	a := NewStepAccumulator(3)
	s, err := a.Average(0, simnet.Second, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.Value(i) != 3 {
			t.Fatalf("interval %d = %v, want 3", i, s.Value(i))
		}
	}
}

// Reproduces the paper's Fig 6 setup: requests with interleaved
// arrival/departure timestamps; the load in each 100ms interval is the
// time-weighted average concurrency.
func TestStepAverageFig6Style(t *testing.T) {
	a := NewStepAccumulator(0)
	ms := simnet.Millisecond
	// One request spanning [20ms, 70ms): contributes 50ms at level 1.
	a.Change(20*ms, 1)
	a.Change(70*ms, -1)
	// Two overlapping requests in the second interval:
	// [110ms,160ms) and [130ms,190ms).
	a.Change(110*ms, 1)
	a.Change(130*ms, 1)
	a.Change(160*ms, -1)
	a.Change(190*ms, -1)

	s, err := a.Average(0, 200*ms, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 0: 50ms at 1, 50ms at 0 -> 0.5
	if got := s.Value(0); !almost(got, 0.5) {
		t.Errorf("interval 0 load = %v, want 0.5", got)
	}
	// Interval 1: 10ms@0 + 20ms@1 + 30ms@2 + 30ms@1 + 10ms@0 = 110ms-worth
	// = (0*10 + 1*20 + 2*30 + 1*30 + 0*10)/100 = 1.1
	if got := s.Value(1); !almost(got, 1.1) {
		t.Errorf("interval 1 load = %v, want 1.1", got)
	}
}

func TestStepAverageChangesBeforeWindow(t *testing.T) {
	a := NewStepAccumulator(0)
	a.Change(-50*simnet.Millisecond, 2) // before window: folded into level
	a.Change(50*simnet.Millisecond, 1)
	s, err := a.Average(0, 100*simnet.Millisecond, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 50ms at 2, 50ms at 3 -> 2.5
	if got := s.Value(0); !almost(got, 2.5) {
		t.Errorf("load = %v, want 2.5", got)
	}
}

func TestStepAverageOutOfOrderChanges(t *testing.T) {
	a := NewStepAccumulator(0)
	ms := simnet.Millisecond
	a.Change(70*ms, -1)
	a.Change(20*ms, 1) // recorded after the departure, still handled
	s, err := a.Average(0, 100*ms, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Value(0); !almost(got, 0.5) {
		t.Errorf("load = %v, want 0.5", got)
	}
}

func TestStepAveragePartialLastInterval(t *testing.T) {
	a := NewStepAccumulator(1)
	// Window of 150ms with 100ms intervals: the second interval covers only
	// 50ms of real time and must still average correctly.
	s, err := a.Average(0, 150*simnet.Millisecond, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Value(1); !almost(got, 1) {
		t.Errorf("partial interval = %v, want 1", got)
	}
}

// Property: for any set of arrival/departure pairs inside the window, the
// total load-time integral equals the total resident time of requests.
func TestLoadIntegralProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		window := simnet.Second
		a := NewStepAccumulator(0)
		var totalResident float64
		for _, r := range raw {
			arrive := simnet.Time(r) % (window / 2)
			span := simnet.Duration(r%400+1) * simnet.Millisecond / 2
			depart := arrive + span
			if depart > window {
				depart = window
			}
			a.Change(arrive, 1)
			a.Change(depart, -1)
			totalResident += float64(depart - arrive)
		}
		s, err := a.Average(0, window, 50*simnet.Millisecond)
		if err != nil {
			return false
		}
		var integral float64
		for i := 0; i < s.Len(); i++ {
			integral += s.Value(i) * float64(s.Width())
		}
		return math.Abs(integral-totalResident) < 1e-3*math.Max(1, totalResident)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}
