package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// validateFollowFlags rejects contradictory flag combinations in one
// clear error instead of silently ignoring flags: batch-only flags have
// no meaning under -follow (the streaming mode never materializes the
// trace or recovers a call graph), and the checkpoint/resume, serving
// and runtime-shape flags have no meaning without it.
func validateFollowFlags(fs *flag.FlagSet, follow bool) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["resume"] && !set["checkpoint"] {
		return fmt.Errorf("tbdetect: -resume needs -checkpoint DIR (there is nowhere to resume from)")
	}
	if set["ckptevery"] && !set["checkpoint"] {
		return fmt.Errorf("tbdetect: -ckptevery needs -checkpoint DIR")
	}
	if follow {
		var bad []string
		for _, name := range []string{
			"wire", "blackbox", "from", "to", "auto",
			"parallel", "classes", "quality", "inflight",
		} {
			if set[name] {
				bad = append(bad, "-"+name)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("tbdetect: batch-only flags don't apply to the streaming mode: %s (drop them or drop -follow)",
				strings.Join(bad, " "))
		}
		return nil
	}
	var bad []string
	for _, name := range []string{
		"checkpoint", "ckptevery", "resume", "listen",
		"shards", "window", "flushlag", "selfmetrics",
	} {
		if set[name] {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) > 0 {
		verb := "applies"
		if len(bad) > 1 {
			verb = "apply"
		}
		return fmt.Errorf("tbdetect: %s only %s to the streaming mode: add -follow", strings.Join(bad, " "), verb)
	}
	// The wire-capture flags only mean something in the mode that reads
	// them: -blackbox picks the reconstruction, -inflight times out
	// visits in lenient assembly (which black-box reconstruction skips).
	on := func(name string) bool { return set[name] && fs.Lookup(name).Value.String() != "false" }
	switch {
	case on("blackbox") && !on("wire"):
		return fmt.Errorf("tbdetect: -blackbox needs -wire (it reconstructs visits from a wire capture)")
	case set["inflight"] && !(on("wire") && on("lenient")):
		return fmt.Errorf("tbdetect: -inflight needs -wire -lenient (only lenient wire assembly times out unterminated visits)")
	case set["inflight"] && on("blackbox"):
		return fmt.Errorf("tbdetect: -inflight does not apply with -blackbox (black-box reconstruction never reads the timeout)")
	}
	return nil
}

// TBDetect analyzes a visit trace (JSONL) for transient bottlenecks and
// prints the per-server report: congestion point N*, congested-interval
// fraction, POIs and ranking.
func TBDetect(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tbdetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "-", "visit JSONL input path (- for stdin)")
		wire     = fs.Bool("wire", false, "input is a raw wire-message capture; assemble visits first")
		blackbox = fs.Bool("blackbox", false, "with -wire: reconstruct call/return pairs black-box (no hop ids) and report accuracy")
		from     = fs.Duration("from", 0, "analysis window start (offset from trace epoch)")
		to       = fs.Duration("to", 0, "analysis window end (0 = end of trace)")
		classes  = fs.String("classes", "", "also print the per-class breakdown for this server")
		auto     = fs.Bool("auto", false, "choose the monitoring interval automatically (overrides -interval)")
		parallel = fs.Int("parallel", 0, "worker goroutines for decoding a visit trace (at most one a core) and for the per-server analyses (0 = GOMAXPROCS, 1 = serial; results are identical)")
		lenient  = fs.Bool("lenient", false, "survive degraded traces: skip corrupt lines, quarantine anomalous hops, repair clock skew")
		quality  = fs.Bool("quality", false, "print the trace-quality block (lines skipped, visits quarantined, skew repairs)")
		inflight = fs.Duration("inflight", 0, "with -wire -lenient: count unterminated visits older than this as timed out rather than in flight (0 = off)")
		follow   = fs.Bool("follow", false, "online mode: stream visits through the sharded runtime, print alerts as intervals close")
		resume   = fs.Bool("resume", false, "with -follow -checkpoint: resume from the newest valid checkpoint, skipping the records it already covers")
		listen   = fs.String("listen", "", "with -follow: serve /metrics, /healthz, /readyz, /report, /servers/{id}/series and SSE /alerts on this address (host:port; port 0 picks one)")
		detect   detectFlags
	)
	detect.register(fs, "with -follow: ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFollowFlags(fs, *follow); err != nil {
		return err
	}
	chosen, err := detect.traceInterval()
	if err != nil {
		return err
	}
	// -to 0 (the default) means the end of the trace; any other window
	// must be a non-empty span at or after the trace epoch.
	w := core.Window{Start: simnet.FromStdDuration(*from), End: simnet.FromStdDuration(*to)}
	switch {
	case *from < 0:
		return fmt.Errorf("tbdetect: -from %v: the window cannot start before the trace epoch", *from)
	case *to < 0:
		return fmt.Errorf("tbdetect: -to %v: the window cannot end before the trace epoch", *to)
	case *to != 0 && w.End <= w.Start:
		return fmt.Errorf("tbdetect: -to %v is not after -from %v: the window is empty", *to, *from)
	}
	if *to != 0 {
		if err := w.Check(chosen); err != nil {
			return fmt.Errorf("tbdetect: -to %v: %w", *to, err)
		}
	}

	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("tbdetect: %w", err)
		}
		defer f.Close()
		r = f
	}
	if *follow {
		return runFollow(r, stdout, stderr, followOpts{
			detectFlags: detect,
			lenient:     *lenient,
			resume:      *resume,
			listen:      *listen,
		})
	}
	// Ingest straight into the per-server grouping the analysis needs.
	// A visit trace is decoded on -parallel workers, at most one a core,
	// and the strict path folds each batch in, in input order, as it
	// arrives (readVisits), so the only full-trace state is the grouped
	// map itself; the wire path — and the lenient visit path, whose skew
	// repair needs whole transactions — has to materialize the trace first.
	q := &core.TraceQuality{}
	ioOpts := traceio.StreamOptions{Policy: traceio.Strict}
	if *lenient {
		ioOpts.Policy = traceio.Skip
	}
	var perServer map[string][]trace.Visit
	var maxDepart simnet.Time
	var callGraph map[string][]string
	if *wire {
		msgs, stats, rerr := traceio.ReadMessagesOpts(r, ioOpts)
		if rerr != nil {
			return rerr
		}
		q.LinesRead = stats.Lines
		q.LinesSkipped = stats.Skipped()
		if *lenient {
			repaired, srep := trace.RepairSkew(msgs)
			msgs = repaired
			q.SkewViolations = srep.Violations
			q.SkewOffsets = srep.Offsets
			q.VisitsRepaired = srep.Shifted
		}
		callGraph = trace.CallGraph(msgs)
		var visits []trace.Visit
		switch {
		case *blackbox:
			rec := trace.Reconstruct(msgs)
			fmt.Fprintf(stderr, "tbdetect: black-box reconstruction: %d pairs, accuracy %.2f%%, %d unmatched calls\n",
				rec.PairedHops, 100*rec.Accuracy(), rec.UnmatchedCalls)
			visits = rec.Visits
			q.InFlight = rec.UnmatchedCalls
			q.OrphanReturns = rec.UnmatchedReturns
			q.VisitsQuarantined = rec.UnmatchedCalls + rec.UnmatchedReturns
		case *lenient:
			var arep trace.AssemblyReport
			visits, arep = trace.AssembleLenient(msgs, trace.AssembleOptions{
				InFlightTimeout: simnet.FromStdDuration(*inflight),
			})
			q.VisitsQuarantined = arep.Quarantined()
			q.OrphanReturns = arep.OrphanReturns
			q.DuplicateMessages = arep.DuplicateCalls + arep.DuplicateReturns
			q.NegativeSpans = arep.NegativeSpans
			q.InFlight = arep.InFlight
			q.TimedOut = arep.TimedOut
		default:
			var err error
			visits, err = trace.Assemble(msgs)
			if err != nil {
				return err
			}
		}
		q.VisitsAssembled = len(visits)
		for _, v := range visits {
			if v.Depart > maxDepart {
				maxDepart = v.Depart
			}
		}
		perServer = trace.PerServer(visits)
	} else if perServer, maxDepart, callGraph, err = readVisits(r, ioOpts, min(*parallel, runtime.GOMAXPROCS(0)), q); err != nil {
		return err
	}
	if q.VisitsAssembled == 0 {
		fmt.Fprintln(stdout, "tbdetect: no visits in trace; nothing to analyze")
		if *quality {
			fmt.Fprint(stdout, q.String())
		}
		return nil
	}

	if w.Start >= maxDepart {
		return fmt.Errorf("tbdetect: -from %v is at or after the trace's last departure (%v): the window is empty",
			*from, simnet.Std(simnet.Duration(maxDepart)))
	}
	if w.End == 0 {
		w.End = maxDepart + 1
	}
	if *auto {
		// Score candidates on the busiest server and apply the winner
		// everywhere.
		busiest := ""
		for name, vs := range perServer {
			if busiest == "" || len(vs) > len(perServer[busiest]) ||
				(len(vs) == len(perServer[busiest]) && name < busiest) {
				busiest = name
			}
		}
		best, table, err := core.ChooseInterval(perServer[busiest], w, nil)
		if err != nil {
			return fmt.Errorf("tbdetect: auto interval: %w", err)
		}
		chosen = best
		fmt.Fprintf(stderr, "tbdetect: auto-selected interval %v (scored on %s):\n",
			simnet.Std(best), busiest)
		for _, c := range table {
			fmt.Fprintf(stderr, "  %8v  fidelity %.3f  resolution %.3f  score %.3f\n",
				simnet.Std(c.Interval), c.Fidelity, c.Resolution, c.Score)
		}
	}

	analysis, err := core.AnalyzeSystemGrouped(perServer, w, core.Options{
		Interval:      chosen,
		RawThroughput: detect.raw,
		Parallelism:   *parallel,
		Quality:       q,
	})
	if err != nil {
		return err
	}

	if *quality {
		fmt.Fprint(stdout, q.String())
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "%-12s  %8s  %12s  %10s  %10s  %6s\n",
		"SERVER", "N*", "TPMAX(u/s)", "CONGESTED", "INTERVALS", "POIs")
	count := 0
	for _, rep := range analysis.Ranking {
		if detect.top > 0 && count >= detect.top {
			break
		}
		count++
		fmt.Fprintf(stdout, "%-12s  %8.1f  %12.0f  %9.1f%%  %10d  %6d\n",
			rep.Server, rep.NStar, rep.TPMax,
			100*rep.CongestedFraction, rep.CongestedIntervals, rep.POICount)
	}
	if len(analysis.Ranking) > 0 {
		worst := analysis.Ranking[0]
		if worst.CongestedFraction > 0 {
			fmt.Fprintf(stdout, "\nmost frequent transient bottleneck: %s (congested %.1f%% of intervals)\n",
				worst.Server, 100*worst.CongestedFraction)
		} else {
			fmt.Fprintln(stdout, "\nno transient bottlenecks detected")
		}
	}

	// Fingerprinted root-cause verdicts over the whole system. The call
	// graph (named by a wire capture's messages, implied by visits' txn
	// linkage) sharpens them, but the engine works from the per-server
	// series alone.
	printVerdicts(stdout, cause.AttributeAnalyses(analysis.Ranked(), cause.Options{Downstream: callGraph}))

	if *classes != "" {
		a, ok := analysis.PerServer[*classes]
		if !ok {
			return fmt.Errorf("tbdetect: no analysis for server %q", *classes)
		}
		breakdown := core.ClassBreakdown(perServer[*classes], a)
		fmt.Fprintf(stdout, "\nper-class breakdown for %s (worst first):\n", *classes)
		fmt.Fprintf(stdout, "%-28s  %8s  %10s  %12s  %9s\n",
			"CLASS", "COUNT", "CONGESTED", "MEAN RESID", "SLOWDOWN")
		for _, c := range breakdown {
			fmt.Fprintf(stdout, "%-28s  %8d  %9.1f%%  %12v  %8.2fx\n",
				c.Class, c.Count, 100*c.CongestedShare,
				simnet.Std(c.MeanResidence).Round(10*time.Microsecond),
				c.CongestedSlowdown)
		}
	}
	return nil
}
