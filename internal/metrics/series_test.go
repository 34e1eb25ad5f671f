package metrics

import (
	"errors"
	"testing"
	"testing/quick"

	"transientbd/internal/simnet"
)

func TestNewIntervalSeriesValidation(t *testing.T) {
	if _, err := NewIntervalSeries(0, 0, 5); err == nil {
		t.Error("want error for zero width")
	}
	if _, err := NewIntervalSeries(0, simnet.Millisecond, 0); err == nil {
		t.Error("want error for zero count")
	}
	s, err := NewIntervalSeries(0, 50*simnet.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 || s.Width() != 50*simnet.Millisecond {
		t.Errorf("series shape wrong: len=%d width=%v", s.Len(), s.Width())
	}
}

func TestNewIntervalSeriesCovering(t *testing.T) {
	s, err := NewIntervalSeriesCovering(0, simnet.Second, 50*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 {
		t.Errorf("Len = %d, want 20", s.Len())
	}
	// Non-divisible span rounds up.
	s2, err := NewIntervalSeriesCovering(0, 1050*simnet.Millisecond, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 11 {
		t.Errorf("Len = %d, want 11", s2.Len())
	}
	if _, err := NewIntervalSeriesCovering(5, 5, simnet.Millisecond); err == nil {
		t.Error("want error for empty span")
	}
}

func TestIndexAndBounds(t *testing.T) {
	s, err := NewIntervalSeries(simnet.Second, 100*simnet.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start() != simnet.Second || s.End() != 2*simnet.Second {
		t.Errorf("bounds = [%v,%v)", s.Start(), s.End())
	}
	i, err := s.Index(simnet.Second)
	if err != nil || i != 0 {
		t.Errorf("Index(start) = %d, %v", i, err)
	}
	i, err = s.Index(1999 * simnet.Millisecond)
	if err != nil || i != 9 {
		t.Errorf("Index(last) = %d, %v", i, err)
	}
	if _, err := s.Index(2 * simnet.Second); !errors.Is(err, ErrRange) {
		t.Errorf("Index(end) err = %v, want ErrRange", err)
	}
	if _, err := s.Index(0); !errors.Is(err, ErrRange) {
		t.Errorf("Index(before) err = %v, want ErrRange", err)
	}
	for _, tc := range []struct {
		t  simnet.Time
		i  int
		ok bool
	}{{simnet.Second, 0, true}, {1999 * simnet.Millisecond, 9, true}, {2 * simnet.Second, 0, false}, {0, 0, false}} {
		if i, ok := s.Lookup(tc.t); i != tc.i || ok != tc.ok {
			t.Errorf("Lookup(%v) = %d, %v; want %d, %v", tc.t, i, ok, tc.i, tc.ok)
		}
	}
}

func TestSetAddValue(t *testing.T) {
	s, err := NewIntervalSeries(0, simnet.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(1, 5); err != nil {
		t.Fatal(err)
	}
	s.Add(1, 2)
	s.Add(99, 100) // silently ignored
	if got := s.Value(1); got != 7 {
		t.Errorf("Value(1) = %v, want 7", got)
	}
	if got := s.Value(99); got != 0 {
		t.Errorf("Value(out of range) = %v, want 0", got)
	}
	if err := s.Set(99, 1); !errors.Is(err, ErrRange) {
		t.Errorf("Set out of range err = %v", err)
	}
}

func TestAddAt(t *testing.T) {
	s, err := NewIntervalSeries(0, 100*simnet.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.AddAt(150*simnet.Millisecond, 1)
	s.AddAt(10*simnet.Second, 1) // dropped
	if s.Value(1) != 1 || s.Value(0) != 0 {
		t.Errorf("AddAt misplaced: %v", s.Values())
	}
}

func TestMidAndIntervalStart(t *testing.T) {
	s, err := NewIntervalSeries(0, 100*simnet.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IntervalStart(3); got != 300*simnet.Millisecond {
		t.Errorf("IntervalStart(3) = %v", got)
	}
}

func TestPerSecond(t *testing.T) {
	s, err := NewIntervalSeries(0, 50*simnet.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := s.ToPerSecond().Value(0); got != 100 {
		t.Errorf("ToPerSecond = %v, want 100 (5 per 50ms)", got)
	}
}

func TestScale(t *testing.T) {
	s, err := NewIntervalSeries(0, simnet.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, 3); err != nil {
		t.Fatal(err)
	}
	s.Scale(2)
	if s.Value(0) != 6 {
		t.Errorf("Scale result = %v, want 6", s.Value(0))
	}
}

func TestSlice(t *testing.T) {
	s, err := NewIntervalSeries(0, 100*simnet.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Set(i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Slice(200*simnet.Millisecond, 500*simnet.Millisecond)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Slice[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	s, err := NewIntervalSeries(0, simnet.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Values()
	v[0] = 42
	if s.Value(0) != 0 {
		t.Error("Values exposed internal state")
	}
}

// Property: Index is consistent with IntervalStart: for any in-range time,
// IntervalStart(Index(t)) <= t < IntervalStart(Index(t))+width.
func TestIndexConsistencyProperty(t *testing.T) {
	s, err := NewIntervalSeries(0, 50*simnet.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		tm := simnet.Time(raw) % s.End()
		i, err := s.Index(tm)
		if err != nil {
			return false
		}
		st := s.IntervalStart(i)
		return st <= tm && tm < st+s.Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestToPerSecondMatchesPerSecond(t *testing.T) {
	s, err := NewIntervalSeries(0, 50*simnet.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Set(i, float64(i*3+1)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Values()
	for i := range want {
		want[i] /= 0.05
	}
	got := s.ToPerSecond().Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: in-place %v, per-second rate %v", i, got[i], want[i])
		}
	}
}
