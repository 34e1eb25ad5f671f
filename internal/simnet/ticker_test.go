package simnet

import "testing"

func TestTickerFiresAtPeriod(t *testing.T) {
	e := NewEngine()
	var times []Time
	if _, err := NewTicker(e, 100*Millisecond, func() { times = append(times, e.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(550 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("ticks = %d, want 5", len(times))
	}
	for i, at := range times {
		want := Time(i+1) * 100 * Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	tk, err := NewTicker(e, 10*Millisecond, func() { count++ })
	if err != nil {
		t.Fatal(err)
	}
	e.Schedule(35*Millisecond, tk.Stop)
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ticks before stop = %d, want 3", count)
	}
	tk.Stop() // idempotent
	if e.Pending() != 0 {
		t.Errorf("pending events after stop = %d, want 0", e.Pending())
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk, err := NewTicker(e, 10*Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Second); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("ticks = %d, want 2 (stopped from callback)", count)
	}
}

func TestTickerValidation(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(nil, Second, func() {}); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewTicker(e, 0, func() {}); err == nil {
		t.Error("want error for zero period")
	}
	if _, err := NewTicker(e, Second, nil); err == nil {
		t.Error("want error for nil callback")
	}
}
