package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*Millisecond, func() { got = append(got, 2) })
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending scheduling order", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(42*Millisecond, func() { at = e.Now() })
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if at != 42*Millisecond {
		t.Errorf("event fired at %v, want 42ms", at)
	}
	if e.Now() != Second {
		t.Errorf("after Run, Now() = %v, want horizon %v", e.Now(), Second)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2*Second, func() { fired = true })
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	// A later Run picks it up.
	if err := e.Run(3 * Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event not fired by later Run")
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(Second, func() { fired = true })
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event exactly at horizon did not fire")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Millisecond, func() {
		e.Schedule(-5*Millisecond, func() {
			if e.Now() != 10*Millisecond {
				t.Errorf("clamped event at %v, want 10ms", e.Now())
			}
		})
	})
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(10*Millisecond, func() { fired = true })
	if !h.Valid() {
		t.Fatal("handle should be valid before firing")
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if h.Valid() {
		t.Error("handle still valid after cancel")
	}
	if e.Cancel(h) {
		t.Error("double cancel returned true")
	}
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var handles []EventHandle
	for i := 0; i < 20; i++ {
		i := i
		h := e.Schedule(Duration(i+1)*Millisecond, func() { got = append(got, i) })
		handles = append(handles, h)
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		if !e.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("canceled event %d fired", v)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10*Millisecond, func() {
		order = append(order, "a")
		e.Schedule(5*Millisecond, func() { order = append(order, "b") })
		e.Schedule(0, func() { order = append(order, "a2") })
	})
	e.Schedule(12*Millisecond, func() { order = append(order, "c") })
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "a2", "c", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunAll(t *testing.T) {
	e := NewEngine()
	count := 0
	var grow func()
	grow = func() {
		count++
		if count < 100 {
			e.Schedule(Millisecond, grow)
		}
	}
	e.Schedule(0, grow)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestReentrantRunRejected(t *testing.T) {
	e := NewEngine()
	var inner error
	e.Schedule(Millisecond, func() {
		inner = e.Run(2 * Second)
	})
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Error("re-entrant Run did not return an error")
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.Schedule(Duration(d)*Microsecond, func() {
				times = append(times, e.Now())
			})
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromStdDuration(1500 * time.Microsecond); got != 1500*Microsecond {
		t.Errorf("FromStdDuration = %v", got)
	}
	if got := Std(2 * Millisecond); got != 2*time.Millisecond {
		t.Errorf("Std = %v", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3 {
		t.Errorf("Millis = %v", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Errorf("String = %q", got)
	}
}
