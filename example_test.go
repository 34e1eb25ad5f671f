package transientbd_test

import (
	"fmt"
	"time"

	"transientbd"
)

// ExampleAnalyze feeds hand-built records — as they would come from a
// packet capture or access log — to the detector. The server runs one
// request at a time (capacity 100/s); a burst in the middle makes
// requests pile up, which the analyzer reports as a congestion episode.
func ExampleAnalyze() {
	var records []transientbd.Record
	service := 10 * time.Millisecond
	var busyUntil time.Duration
	at := time.Duration(0)
	for at < 8*time.Second {
		gap := 20 * time.Millisecond // 50% utilization baseline
		if at >= 2*time.Second && at < 2500*time.Millisecond {
			gap = 4 * time.Millisecond // 2.5× capacity burst
		}
		at += gap
		start := at
		if busyUntil > start {
			start = busyUntil
		}
		busyUntil = start + service
		records = append(records, transientbd.Record{
			Server: "db", Class: "query",
			Arrive: at, Depart: busyUntil,
		})
	}

	report, err := transientbd.Analyze(records, transientbd.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	db := report.PerServer["db"]
	fmt.Printf("saturated: %v\n", db.Saturated)
	fmt.Printf("first episode starts around second %d\n", int(db.Episodes[0].Start.Seconds()))
	// Output:
	// saturated: true
	// first episode starts around second 2
}

// ExampleAnalyze_ranking shows the whole-system view: servers ranked by
// how often they are transiently congested.
func ExampleAnalyze_ranking() {
	var records []transientbd.Record
	// A quiet web server...
	for at := time.Duration(0); at < 4*time.Second; at += 100 * time.Millisecond {
		records = append(records, transientbd.Record{
			Server: "web", Class: "page",
			Arrive: at, Depart: at + 2*time.Millisecond,
		})
	}
	// ...and a database that is overloaded for one second.
	var busyUntil time.Duration
	for at := time.Duration(0); at < 4*time.Second; at += 12 * time.Millisecond {
		gap := at
		if at >= time.Second && at < 2*time.Second {
			gap = at // dense phase handled below via extra records
		}
		start := gap
		if busyUntil > start {
			start = busyUntil
		}
		busyUntil = start + 10*time.Millisecond
		records = append(records, transientbd.Record{
			Server: "db", Class: "q", Arrive: gap, Depart: busyUntil,
		})
	}
	report, err := transientbd.Analyze(records, transientbd.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("worst server:", report.Ranking[0].Server)
	// Output:
	// worst server: db
}

// ExampleAnalyzeScenario is the README quickstart: simulate the
// four-tier testbed, analyze its trace over the measured window at the
// paper's default 50 ms granularity, and rank the servers by how often
// they are transiently congested. AnalyzeScenario runs the same two
// steps in one call. At this workload every tier crosses its knee in
// bursts, which is the paper's point: a closed n-tier system propagates
// congestion up the call chain.
func ExampleAnalyzeScenario() {
	// 1. Records come from any passive tracing source: packet captures,
	//    proxies, access logs — anything with per-server request arrival
	//    and departure timestamps. Here, the built-in simulated testbed.
	res, err := transientbd.RunScenario(transientbd.Scenario{
		Users: 8000, Duration: 15 * time.Second, Ramp: 5 * time.Second, Bursty: true, Seed: 42,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// 2. Analyze the measured window, leaving out the warm-up.
	report, err := transientbd.Analyze(res.Records, transientbd.Config{
		WindowStart: res.WindowStart, WindowEnd: res.WindowEnd,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// 3. Rank servers by transient-bottleneck frequency, worst first.
	for i, s := range report.Ranking {
		fmt.Printf("%d. %-8s knee found: %-5v congested >5%%: %-5v froze: %v\n",
			i+1, s.Server, s.Saturated, s.CongestedFraction > 0.05, len(s.POITimes) > 0)
	}
	// Output:
	// 1. cjdbc    knee found: true  congested >5%: true  froze: false
	// 2. tomcat-2 knee found: true  congested >5%: true  froze: false
	// 3. tomcat-1 knee found: true  congested >5%: true  froze: false
	// 4. mysql-1  knee found: true  congested >5%: true  froze: false
	// 5. mysql-2  knee found: true  congested >5%: true  froze: false
	// 6. apache   knee found: true  congested >5%: true  froze: false
}

// ExampleNewStream is the online deployment mode: instead of analyzing a
// finished trace, a Stream consumes records in completion order — the
// order a passive tracer emits them — and raises congestion and freeze
// alerts live, as each 50 ms interval closes. The app server runs one
// request at a time (capacity 100/s), takes a short burst at second 2,
// and stalls for 300 ms at second 5, the way a stop-the-world garbage
// collection freezes a JVM.
//
// A live alert is judged against the congestion point current when its
// interval closed, here re-estimated every 2 s of trace time; Close
// re-judges the whole window against the settled estimate, so the final
// report can see more of a freeze than the live alerts did.
func ExampleNewStream() {
	var records []transientbd.Record
	var busyUntil time.Duration
	for at := time.Duration(0); at < 8*time.Second; {
		gap := 20 * time.Millisecond // 50% utilization baseline
		if at >= 2*time.Second && at < 2500*time.Millisecond {
			gap = 8 * time.Millisecond // 1.25× capacity burst
		}
		at += gap
		start := max(at, busyUntil)
		if start >= 5*time.Second && start < 5300*time.Millisecond {
			start = 5300 * time.Millisecond // the stall: nothing completes
		}
		busyUntil = start + 10*time.Millisecond
		records = append(records, transientbd.Record{
			Server: "app", Class: "page", Arrive: at, Depart: busyUntil,
		})
	}
	// A one-at-a-time server completes requests in arrival order, so
	// records is already in completion order.

	stream, err := transientbd.NewStream(transientbd.StreamConfig{
		OnlineConfig: transientbd.OnlineConfig{Reestimate: 2 * time.Second},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	congested, frozen := 0, 0
	var firstFreeze time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range stream.Alerts() {
			switch {
			case a.Freeze:
				if frozen == 0 {
					firstFreeze = a.Time
				}
				frozen++
			case a.Congested:
				congested++
			}
		}
	}()
	for _, r := range records {
		if err := stream.Observe(r); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	report := stream.Close()
	<-done

	fmt.Printf("live alerts: %d congested, %d frozen (first at %v)\n", congested, frozen, firstFreeze)
	fmt.Printf("final report: frozen at %v\n", report.PerServer["app"].POITimes)
	// Output:
	// live alerts: 16 congested, 1 frozen (first at 5.25s)
	// final report: frozen at [5.15s 5.2s 5.25s]
}
