package server

import (
	"testing"

	"transientbd/internal/cpu"
	"transientbd/internal/jvm"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

const ms = simnet.Millisecond

type fixture struct {
	engine    *simnet.Engine
	proc      *cpu.Processor
	collector *trace.Collector
	srv       *Server
}

func newFixture(t *testing.T, cfg Config, cores int) *fixture {
	t.Helper()
	e := simnet.NewEngine()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	srv, err := New(e, proc, nil, col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: e, proc: proc, collector: col, srv: srv}
}

func simpleRequest(f *fixture, class string, work simnet.Duration, onDone func()) *Request {
	return &Request{
		Class:  class,
		TxnID:  1,
		HopID:  f.collector.NextHopID(),
		From:   "client",
		Phases: []Phase{Compute{Work: work}},
		OnDone: onDone,
	}
}

func TestNewValidation(t *testing.T) {
	e := simnet.NewEngine()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	cases := []struct {
		name string
		fn   func() (*Server, error)
	}{
		{"nil engine", func() (*Server, error) { return New(nil, proc, nil, col, Config{Name: "x", Threads: 1}) }},
		{"nil proc", func() (*Server, error) { return New(e, nil, nil, col, Config{Name: "x", Threads: 1}) }},
		{"nil collector", func() (*Server, error) { return New(e, proc, nil, nil, Config{Name: "x", Threads: 1}) }},
		{"empty name", func() (*Server, error) { return New(e, proc, nil, col, Config{Threads: 1}) }},
		{"zero threads", func() (*Server, error) { return New(e, proc, nil, col, Config{Name: "x"}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.fn(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	f := newFixture(t, Config{Name: "mysql", Threads: 10}, 1)
	var doneAt simnet.Time = -1
	r := simpleRequest(f, "q1", 5*ms, func() { doneAt = f.engine.Now() })
	r.ReqBytes = 100
	r.RespBytes = 400
	if err := f.srv.Receive(r); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt != 5*ms {
		t.Errorf("done at %v, want 5ms", doneAt)
	}
	if f.srv.Completed() != 1 {
		t.Errorf("Completed = %d, want 1", f.srv.Completed())
	}
	in, out := f.srv.NetBytes()
	if in != 100 || out != 400 {
		t.Errorf("NetBytes = %d/%d, want 100/400", in, out)
	}

	// Wire: one call and one return.
	visits, err := trace.Assemble(f.collector.Messages())
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 1 {
		t.Fatalf("visits = %d, want 1", len(visits))
	}
	v := visits[0]
	if v.Server != "mysql" || v.Arrive != 0 || v.Depart != 5*ms {
		t.Errorf("visit = %+v", v)
	}
}

func TestReceiveValidation(t *testing.T) {
	f := newFixture(t, Config{Name: "s", Threads: 1}, 1)
	if err := f.srv.Receive(nil); err == nil {
		t.Error("want error for nil request")
	}
	if err := f.srv.Receive(&Request{Class: "c"}); err == nil {
		t.Error("want error for missing hop id")
	}
}

func TestThreadLimitQueues(t *testing.T) {
	// 2 threads, 2 cores: requests 3+ wait in the server queue, not on CPU.
	f := newFixture(t, Config{Name: "s", Threads: 2}, 2)
	var done []simnet.Time
	for i := 0; i < 4; i++ {
		r := simpleRequest(f, "q", 10*ms, func() { done = append(done, f.engine.Now()) })
		if err := f.srv.Receive(r); err != nil {
			t.Fatal(err)
		}
	}
	if f.srv.Load() != 4 {
		t.Errorf("Load = %d, want 4 (2 admitted + 2 queued)", f.srv.Load())
	}
	if err := f.engine.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("completed %d, want 4", len(done))
	}
	if done[1] != 10*ms || done[3] != 20*ms {
		t.Errorf("waves at %v, want 10ms/20ms", done)
	}
	if f.srv.Load() != 0 {
		t.Errorf("final Load = %d, want 0", f.srv.Load())
	}
}

func TestThreadsBeyondCoresShareCPUQueue(t *testing.T) {
	// 4 threads but 1 core: all four admitted immediately (thread pool),
	// but CPU serializes them.
	f := newFixture(t, Config{Name: "s", Threads: 4}, 1)
	var done []simnet.Time
	for i := 0; i < 4; i++ {
		r := simpleRequest(f, "q", 10*ms, func() { done = append(done, f.engine.Now()) })
		if err := f.srv.Receive(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.engine.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	want := []simnet.Time{10 * ms, 20 * ms, 30 * ms, 40 * ms}
	for i, w := range want {
		if done[i] != w {
			t.Errorf("done[%d] = %v, want %v", i, done[i], w)
		}
	}
}

func TestDownstreamPhaseHoldsThreadWithoutCPU(t *testing.T) {
	f := newFixture(t, Config{Name: "tomcat", Threads: 1}, 1)
	var callbackDone func()
	var doneAt simnet.Time = -1
	r := &Request{
		Class: "page",
		TxnID: 1,
		HopID: f.collector.NextHopID(),
		From:  "apache",
		Phases: []Phase{
			Compute{Work: 2 * ms},
			Downstream{Do: func(done func()) { callbackDone = done }},
			Compute{Work: 3 * ms},
		},
		OnDone: func() { doneAt = f.engine.Now() },
	}
	if err := f.srv.Receive(r); err != nil {
		t.Fatal(err)
	}
	// Let the first compute phase finish; the downstream call then blocks.
	if err := f.engine.Run(10 * ms); err != nil {
		t.Fatal(err)
	}
	if callbackDone == nil {
		t.Fatal("downstream phase not reached")
	}
	if f.proc.RunningLen() != 0 {
		t.Error("thread blocked downstream must not hold a core")
	}
	// Complete the downstream call at 10ms; final compute takes 3ms more.
	callbackDone()
	if err := f.engine.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt != 13*ms {
		t.Errorf("done at %v, want 13ms", doneAt)
	}
}

func TestNilDownstreamSkipped(t *testing.T) {
	f := newFixture(t, Config{Name: "s", Threads: 1}, 1)
	done := false
	r := &Request{
		Class:  "q",
		TxnID:  1,
		HopID:  f.collector.NextHopID(),
		From:   "client",
		Phases: []Phase{Downstream{}},
		OnDone: func() { done = true },
	}
	if err := f.srv.Receive(r); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Run(ms); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("request with nil downstream did not complete")
	}
}

func TestEmptyPhasesCompletesImmediately(t *testing.T) {
	f := newFixture(t, Config{Name: "s", Threads: 1}, 1)
	done := false
	r := &Request{
		Class:  "q",
		TxnID:  1,
		HopID:  f.collector.NextHopID(),
		From:   "client",
		OnDone: func() { done = true },
	}
	if err := f.srv.Receive(r); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("zero-phase request should complete synchronously")
	}
}

func TestBacklogTriggersRetransmission(t *testing.T) {
	f := newFixture(t, Config{
		Name:          "apache",
		Threads:       1,
		AcceptBacklog: 1,
	}, 1)
	var doneTimes []simnet.Time
	mk := func() *Request {
		return simpleRequest(f, "page", 10*ms, func() { doneTimes = append(doneTimes, f.engine.Now()) })
	}
	// First fills the thread, second fills the backlog, third suffers RTO.
	for i := 0; i < 3; i++ {
		if err := f.srv.Receive(mk()); err != nil {
			t.Fatal(err)
		}
	}
	if f.srv.Retransmissions() != 1 {
		t.Fatalf("Retransmissions = %d, want 1", f.srv.Retransmissions())
	}
	if err := f.engine.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if len(doneTimes) != 3 {
		t.Fatalf("completed %d, want 3", len(doneTimes))
	}
	// Third request: accepted at the 3s RTO, served 10ms later.
	if doneTimes[2] != retransDelay+10*ms {
		t.Errorf("retransmitted request done at %v, want %v", doneTimes[2], retransDelay+10*ms)
	}
	// The wide gap between normal (~10-20ms) and retransmitted (>3s)
	// responses is the bi-modal mechanism of Fig 2c.
	if doneTimes[1] >= simnet.Second {
		t.Errorf("non-retransmitted request done at %v, want < 1s", doneTimes[1])
	}
}

func TestRetransmittedArrivalTimestampIsLate(t *testing.T) {
	f := newFixture(t, Config{Name: "s", Threads: 1, AcceptBacklog: 1}, 1)
	for i := 0; i < 3; i++ {
		if err := f.srv.Receive(simpleRequest(f, "q", 10*ms, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.engine.Run(10 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	visits, err := trace.Assemble(f.collector.Messages())
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 3 {
		t.Fatalf("visits = %d, want 3", len(visits))
	}
	var late int
	for _, v := range visits {
		if v.Arrive >= 3*simnet.Second {
			late++
		}
	}
	if late != 1 {
		t.Errorf("late arrivals = %d, want 1 (the retransmitted request)", late)
	}
}

func TestGCFreezeCreatesZeroThroughputWindow(t *testing.T) {
	// A server with a serial-GC heap: a large allocation triggers a
	// stop-the-world pause; requests arriving during the pause pile up
	// (high load) and nothing departs (zero throughput) — the POI
	// mechanism of Fig 9(b).
	e := simnet.NewEngine()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := jvm.NewHeap(e, proc, jvm.Config{Kind: jvm.CollectorSerial, HeapBytes: 100 * jvm.MB})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	srv, err := New(e, proc, heap, col, Config{Name: "tomcat", Threads: 100})
	if err != nil {
		t.Fatal(err)
	}
	// A request allocating 90MB at t=50ms crosses the 90% threshold: the
	// collector reclaims 65MB in a ≈38ms pause, spanning several of the
	// 5ms arrivals below.
	trig := &Request{
		Class: "big", TxnID: 1, HopID: col.NextHopID(), From: "apache",
		AllocBytes: 90 * jvm.MB,
		Phases:     []Phase{Compute{Work: ms}},
	}
	e.Schedule(50*ms, func() {
		if err := srv.Receive(trig); err != nil {
			t.Error(err)
		}
	})
	// Steady stream of small requests every 5ms.
	var completions []simnet.Time
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(simnet.Duration(i)*5*ms, func() {
			r := &Request{
				Class: "q", TxnID: int64(i + 10), HopID: col.NextHopID(), From: "apache",
				Phases: []Phase{Compute{Work: ms}},
				OnDone: func() { completions = append(completions, e.Now()) },
			}
			if err := srv.Receive(r); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(200 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if heap.Collections() != 1 {
		t.Fatalf("collections = %d, want 1", heap.Collections())
	}
	gc := heap.Log()[0]
	// No completions inside the stop-the-world window.
	for _, c := range completions {
		if c > gc.Start && c < gc.End {
			t.Errorf("completion at %v inside GC pause [%v,%v]", c, gc.Start, gc.End)
		}
	}
	if len(completions) != 100 {
		t.Errorf("completions = %d, want 100 (all served eventually)", len(completions))
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t, Config{Name: "s", Threads: 1}, 1)
	if f.srv.Name() != "s" {
		t.Error("Name wrong")
	}
	if f.srv.Processor() != f.proc {
		t.Error("Processor wrong")
	}
	if f.srv.Heap() != nil {
		t.Error("Heap should be nil")
	}
}
