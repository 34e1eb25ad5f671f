// Package transientbd detects transient performance bottlenecks in n-tier
// applications through fine-grained load/throughput correlation analysis.
//
// It is a from-scratch Go reproduction of Wang et al., "Detecting
// Transient Bottlenecks in n-Tier Applications through Fine-Grained
// Analysis" (ICDCS 2013). Transient bottlenecks are congestion episodes
// lasting tens of milliseconds — invisible to conventional monitoring
// that samples at seconds — yet frequent enough to produce long-tail,
// bi-modal response-time distributions while every resource looks
// under-utilized.
//
// # The method
//
// The only input is a passive record of every request's arrival and
// departure timestamp at every server (obtainable from network taps,
// proxies, or access logs). For each short interval (50 ms by default)
// the analyzer computes each server's load (time-weighted concurrent
// requests) and throughput (completed requests, normalized into work
// units so mixed request classes are comparable). Plotting throughput
// against load traces a "main sequence curve" whose knee — the congestion
// point N* — is located by statistical intervention analysis. Intervals
// whose load exceeds N* are transient congestion episodes; congested
// intervals with near-zero throughput are freezes (e.g. stop-the-world
// garbage collection).
//
// # Quick start
//
//	records := []transientbd.Record{ /* from your tracing */ }
//	report, err := transientbd.Analyze(records, transientbd.Config{})
//	if err != nil { ... }
//	for _, s := range report.Ranking {
//	    fmt.Printf("%s: congested %.1f%% of intervals (N*=%.1f)\n",
//	        s.Server, 100*s.CongestedFraction, s.NStar)
//	}
//
// # Performance and concurrency
//
// The method is embarrassingly parallel across servers: load,
// normalized throughput and N* are computed independently per tier.
// Analyze exploits exactly that and nothing else — records are validated,
// converted and grouped in one serial pass, then the per-server analyses
// fan out across a bounded worker pool sized by Config.Parallelism
// (0 = GOMAXPROCS, 1 = serial), the same orchestration tbdetect -in runs.
// The report is deterministic: identical at every worker count.
// Analyze, AnalyzeSystem-style batch entry points and the returned
// Report/ServerAnalysis values are safe for concurrent use; a Stream
// has one producer goroutine (see its doc). PERFORMANCE.md documents
// the pipeline's cost model and how to measure it: the repository
// benchmark (`bash benchmark/run.sh`, declared in BENCHMARK.json) is
// the record, `go test -bench` the development loop.
//
// # Simulation testbed
//
// The package also ships the full simulated RUBBoS-style testbed used to
// validate the method (RunScenario): a four-tier web deployment with
// switchable JVM garbage collectors and an Intel SpeedStep CPU frequency
// governor, reproducing both of the paper's case studies. See
// ExampleAnalyzeScenario, `go run ./cmd/experiments run fig9-11` (JVM
// GC) and `fig12-13` (SpeedStep), and EXPERIMENTS.md.
package transientbd
