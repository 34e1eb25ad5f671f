// streaming demonstrates the online deployment mode: instead of analyzing
// a finished trace, a Stream consumes records as they complete (the order
// a passive tracer emits them) and raises congestion and freeze alerts
// live, with bounded memory.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"transientbd"
)

func main() {
	// Produce a trace with a stop-the-world GC problem in the app tier.
	res, err := transientbd.RunScenario(transientbd.Scenario{
		Users:        14000,
		Duration:     60 * time.Second,
		Ramp:         15 * time.Second,
		Seed:         5,
		AppCollector: transientbd.CollectorSerial,
		Bursty:       true,
		ThinkTime:    17 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Replay it through the streaming detector in completion order.
	records := res.Records
	sort.Slice(records, func(i, j int) bool { return records[i].Depart < records[j].Depart })

	// The watermark trails the newest completion by FlushLag so visits
	// still in flight can land in their intervals before they close.
	stream, err := transientbd.NewStream(transientbd.StreamConfig{
		OnlineConfig: transientbd.OnlineConfig{
			Window:     45 * time.Second,
			Reestimate: 5 * time.Second,
		},
		FlushLag: 500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	freezes, congested := 0, 0
	var firstFreeze time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range stream.Alerts() {
			if a.Freeze {
				freezes++
				if firstFreeze == 0 {
					firstFreeze = a.Time
				}
				if freezes <= 5 {
					fmt.Printf("[%8v] FREEZE at %s: load %.0f, throughput %.0f\n",
						a.Time, a.Server, a.Load, a.Throughput)
				}
			} else if a.Congested {
				congested++
			}
		}
	}()
	for _, r := range records {
		if err := stream.Observe(r); err != nil {
			log.Fatal(err)
		}
	}
	report := stream.Close()
	<-done

	fmt.Printf("\nstreamed %d records: %d congested intervals, %d freezes (first at %v)\n",
		len(records), congested, freezes, firstFreeze)
	if tomcat := report.PerServer["tomcat-1"]; tomcat != nil {
		fmt.Printf("tomcat-1 congestion point over the final window: N* = %.1f\n", tomcat.NStar)
	}
	if freezes > 0 {
		fmt.Println("a live dashboard would have paged on the first freeze, minutes before")
		fmt.Println("any 1-second CPU graph showed anything unusual")
	}
}
