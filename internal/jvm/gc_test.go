package jvm

import (
	"math"
	"testing"

	"transientbd/internal/cpu"
	"transientbd/internal/simnet"
)

func newHeapForTest(t *testing.T, e *simnet.Engine, cfg Config) (*Heap, *cpu.Processor) {
	t.Helper()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(e, proc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, proc
}

func TestNewHeapValidation(t *testing.T) {
	e := simnet.NewEngine()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHeap(nil, proc, Config{Kind: CollectorSerial}); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewHeap(e, nil, Config{Kind: CollectorSerial}); err == nil {
		t.Error("want error for nil processor")
	}
	if _, err := NewHeap(e, proc, Config{}); err == nil {
		t.Error("want error for missing collector kind")
	}
}

func TestCollectorKindString(t *testing.T) {
	if CollectorSerial.String() != "serial (JDK 1.5)" {
		t.Errorf("serial String = %q", CollectorSerial.String())
	}
	if CollectorConcurrent.String() != "concurrent (JDK 1.6)" {
		t.Errorf("concurrent String = %q", CollectorConcurrent.String())
	}
	if CollectorKind(0).String() != "CollectorKind(0)" {
		t.Errorf("unknown kind String = %q", CollectorKind(0).String())
	}
}

func TestAllocationAccumulates(t *testing.T) {
	e := simnet.NewEngine()
	h, _ := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	h.Alloc(10 * MB)
	h.Alloc(5 * MB)
	h.Alloc(0)  // ignored
	h.Alloc(-3) // ignored
	if h.Used() != 15*MB {
		t.Errorf("Used = %d, want 15MB", h.Used())
	}
	if h.Collections() != 0 {
		t.Errorf("Collections = %d, want 0", h.Collections())
	}
}

// perGB scales a per-GB duration to the collected bytes, as collect does.
func perGB(collected int64, d simnet.Duration) simnet.Duration {
	return simnet.Duration(float64(collected) / float64(1024*MB) * float64(d))
}

func TestSerialGCTriggersAndPauses(t *testing.T) {
	e := simnet.NewEngine()
	h, proc := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	h.Alloc(90 * MB) // crosses 90% threshold
	if !h.InGC() {
		t.Fatal("GC did not trigger at threshold")
	}
	if !proc.Paused() {
		t.Fatal("serial GC did not pause the processor (must be stop-the-world)")
	}
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.InGC() {
		t.Error("GC never finished")
	}
	if proc.Paused() {
		t.Error("processor still paused after GC")
	}
	if h.Collections() != 1 {
		t.Fatalf("Collections = %d, want 1", h.Collections())
	}
	ev := h.Log()[0]
	// Collected 90-25=65MB at 600ms/GB → ~38.1ms pause.
	wantPause := 65.0 / 1024.0 * serialPausePerGB.Millis()
	gotPause := (ev.End - ev.Start).Millis()
	if math.Abs(gotPause-wantPause) > 1 {
		t.Errorf("pause = %.2fms, want ~%.2fms", gotPause, wantPause)
	}
	if len(ev.Pauses) != 1 {
		t.Errorf("serial GC pauses = %d, want 1 (whole cycle)", len(ev.Pauses))
	}
	if ev.CollectedBytes != 65*MB {
		t.Errorf("CollectedBytes = %d, want 65MB", ev.CollectedBytes)
	}
	if h.Used() != 25*MB {
		t.Errorf("post-GC Used = %d, want live set 25MB", h.Used())
	}
}

func TestSerialGCFreezesJobs(t *testing.T) {
	e := simnet.NewEngine()
	h, proc := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	var doneAt simnet.Time = -1
	proc.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	e.Schedule(5*simnet.Millisecond, func() { h.Alloc(90 * MB) })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	// Job: 5ms progress, then frozen for the (90-25)MB pause, then 5ms.
	want := 10*simnet.Millisecond + perGB(65*MB, serialPausePerGB)
	if doneAt != want {
		t.Errorf("job finished at %v, want %v", doneAt, want)
	}
}

func TestAllocDuringGCBuffered(t *testing.T) {
	e := simnet.NewEngine()
	h, _ := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	h.Alloc(90 * MB)
	if !h.InGC() {
		t.Fatal("GC should be running")
	}
	h.Alloc(7 * MB) // arrives mid-GC
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.Used() != 32*MB {
		t.Errorf("post-GC Used = %dMB, want live 25MB + pending 7MB", h.Used()/MB)
	}
}

func TestConcurrentGCShortPauses(t *testing.T) {
	e := simnet.NewEngine()
	h, proc := newHeapForTest(t, e, Config{Kind: CollectorConcurrent, HeapBytes: 100 * MB})
	h.Alloc(90 * MB)
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.Collections() != 1 {
		t.Fatalf("Collections = %d, want 1", h.Collections())
	}
	ev := h.Log()[0]
	if len(ev.Pauses) != 2 {
		t.Fatalf("concurrent GC pauses = %d, want 2 (mark + remark)", len(ev.Pauses))
	}
	for i, p := range ev.Pauses {
		span := p[1] - p[0]
		if span != concurrentPause {
			t.Errorf("pause %d span = %v, want %v", i, span, concurrentPause)
		}
	}
	// Total STW time is far shorter than a serial collection of the same
	// heap — the mechanism behind Fig 11's improvement.
	if got := h.TotalPause(); got != 2*concurrentPause {
		t.Errorf("TotalPause = %v, want %v", got, 2*concurrentPause)
	}
	if proc.Paused() {
		t.Error("processor left paused")
	}
}

func TestConcurrentGCCompetesForCPU(t *testing.T) {
	e := simnet.NewEngine()
	h, proc := newHeapForTest(t, e, Config{Kind: CollectorConcurrent, HeapBytes: 1024 * MB})
	h.Alloc(922 * MB) // trigger: collected 922-256=666MB → ~97.6ms background work
	work := perGB(666*MB, concurrentWorkPerGB)
	// On a single core, an app job submitted after the initial mark must
	// wait for the background GC job.
	var doneAt simnet.Time = -1
	e.Schedule(concurrentPause+simnet.Millisecond, func() {
		proc.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	})
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt < concurrentPause+work {
		t.Errorf("app job finished at %v; expected delay behind %v GC work", doneAt, work)
	}
}

func TestBackToBackCollection(t *testing.T) {
	e := simnet.NewEngine()
	h, _ := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	h.Alloc(90 * MB)
	// Huge allocation during GC: after the cycle, occupancy is again above
	// the threshold, forcing an immediate second collection.
	h.Alloc(85 * MB)
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.Collections() != 2 {
		t.Errorf("Collections = %d, want 2 (back-to-back)", h.Collections())
	}
}

func TestRunningRatio(t *testing.T) {
	e := simnet.NewEngine()
	h, _ := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	e.Schedule(100*simnet.Millisecond, func() { h.Alloc(90 * MB) })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	ratio, err := h.RunningRatio(0, simnet.Second, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// GC spans [100ms, 100ms+pause), ≈38ms of interval 1.
	want := float64(perGB(65*MB, serialPausePerGB)) / float64(100*simnet.Millisecond)
	if got := ratio.Value(0); got != 0 {
		t.Errorf("interval 0 ratio = %v, want 0", got)
	}
	if got := ratio.Value(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("interval 1 ratio = %v, want %v", got, want)
	}
	if got := ratio.Value(2); got != 0 {
		t.Errorf("interval 2 ratio = %v, want 0", got)
	}
}

func TestHeapClampsAtCapacity(t *testing.T) {
	e := simnet.NewEngine()
	h, _ := newHeapForTest(t, e, Config{Kind: CollectorSerial, HeapBytes: 100 * MB})
	h.Alloc(500 * MB) // more than the heap: clamped, triggers GC
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.Collections() != 1 {
		t.Errorf("Collections = %d, want 1", h.Collections())
	}
	if h.Log()[0].CollectedBytes != 75*MB {
		t.Errorf("CollectedBytes = %dMB, want 75MB (clamped heap - live)", h.Log()[0].CollectedBytes/MB)
	}
}

func TestDefaults(t *testing.T) {
	e := simnet.NewEngine()
	if h, _ := newHeapForTest(t, e, Config{Kind: CollectorConcurrent}); h.cfg.HeapBytes != 512*MB {
		t.Errorf("default heap = %d", h.cfg.HeapBytes)
	}
	// A default serial heap triggers at 90% occupancy, keeps a 25% live
	// set and pauses 600ms per GB collected.
	h, proc := newHeapForTest(t, e, Config{Kind: CollectorSerial})
	below := 512 * MB * 9 / 10 // 460.8MB rounded down
	h.Alloc(below)
	if h.InGC() {
		t.Fatal("GC triggered below 90% occupancy")
	}
	h.Alloc(1)
	if err := e.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if h.Used() != 128*MB {
		t.Errorf("post-GC Used = %dMB, want live set 128MB", h.Used()/MB)
	}
	collected := below + 1 - 128*MB
	wantPause := perGB(collected, 600*simnet.Millisecond)
	if ev := h.Log()[0]; ev.End-ev.Start != wantPause {
		t.Errorf("default serial pause = %v, want %v", ev.End-ev.Start, wantPause)
	}
	if _, err := NewHeap(e, proc, Config{Kind: CollectorKind(99)}); err == nil {
		t.Error("want error for unknown kind")
	}
}
