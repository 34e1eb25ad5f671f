package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/serve"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// detectFlags are the detection flags `tbdetect -follow` and `tbdetect
// merge` share: registered once, turned into a stream.Config once.
type detectFlags struct {
	interval time.Duration
	window   time.Duration
	flushLag time.Duration
	raw      bool
	shards   int
	top      int
	metrics  bool

	// Durable recovery: checkpointDir enables periodic consistent cuts
	// every ckptEvery of trace time.
	checkpointDir string
	ckptEvery     time.Duration
}

// register binds the shared flags to fs. only prefixes the help of the
// flags that mean nothing outside the streaming mode ("with -follow: "
// for tbdetect, whose -interval, -raw and -top also serve the batch path).
func (d *detectFlags) register(fs *flag.FlagSet, only string) {
	fs.DurationVar(&d.interval, "interval", 50*time.Millisecond, "monitoring interval length (a positive whole number of microseconds)")
	fs.DurationVar(&d.window, "window", simnet.Std(core.DefaultWindow), only+"sliding window N* is estimated over (at least 20 intervals)")
	fs.DurationVar(&d.flushLag, "flushlag", time.Second, only+"how far interval closing trails the newest departure (must exceed max residence plus any feed reordering)")
	fs.BoolVar(&d.raw, "raw", false, "disable work-unit throughput normalization")
	fs.IntVar(&d.shards, "shards", 0, only+"shard goroutines records are hash-partitioned across (0 = GOMAXPROCS)")
	fs.IntVar(&d.top, "top", 0, "print only the N worst servers (0 = all)")
	fs.BoolVar(&d.metrics, "selfmetrics", false, only+"print the runtime self-metrics block (records/s, queue depths, drops) to stderr at exit")
	fs.StringVar(&d.checkpointDir, "checkpoint", "", only+"directory for durable checkpoints (consistent analyzer-state cuts, written atomically; a final cut is written at exit)")
	fs.DurationVar(&d.ckptEvery, "ckptevery", 10*time.Second, only+"trace time between automatic checkpoints (needs -checkpoint)")
}

// traceInterval is -interval on the trace clock. The clock ticks in
// microseconds and the conversion truncates, so the value is converted
// first and validated after: a sub-microsecond interval would otherwise
// pass as a positive time.Duration, truncate to zero and run the 50 ms
// default on a window sized for the value given.
func (d *detectFlags) traceInterval() (simnet.Duration, error) {
	iv := simnet.FromStdDuration(d.interval)
	if iv <= 0 || simnet.Std(iv) != d.interval {
		return 0, fmt.Errorf("tbdetect: -interval %v: the monitoring interval must be a positive whole number of microseconds", d.interval)
	}
	return iv, nil
}

// streamConfig is the detection runtime the flags describe, or an error
// naming the flag that cannot be honoured.
func (d *detectFlags) streamConfig() (stream.Config, error) {
	iv, err := d.traceInterval()
	if err != nil {
		return stream.Config{}, err
	}
	n := simnet.FromStdDuration(d.window) / iv
	if err := core.CheckIntervals(int64(n), core.MinWindowIntervals); err != nil {
		return stream.Config{}, fmt.Errorf("tbdetect: -window %v at -interval %v: %w", d.window, d.interval, err)
	}
	shards := d.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return stream.Config{
		Online: core.OnlineOptions{
			Options: core.Options{
				Interval:      iv,
				RawThroughput: d.raw,
			},
			WindowIntervals: int(n),
		},
		Shards:          shards,
		FlushLag:        simnet.FromStdDuration(d.flushLag),
		CheckpointDir:   d.checkpointDir,
		CheckpointEvery: simnet.FromStdDuration(d.ckptEvery),
	}, nil
}

// followOpts carries the tbdetect flags the follow mode consumes.
type followOpts struct {
	detectFlags
	lenient bool
	// resume continues from the newest valid checkpoint cut, skipping the
	// records it already covers.
	resume bool
	// stop, when non-nil, replaces the SIGINT/SIGTERM handler — closing
	// it triggers the graceful-shutdown path (tests inject it).
	stop <-chan struct{}

	// listen, when non-empty, starts the HTTP serving layer on that
	// address (port 0 picks a free one). publishEvery is the wall-clock
	// cadence at which the ingest loop publishes merged snapshots to
	// /report (default 1s); listenReady, when non-nil, receives the bound
	// address once the listener is up (tests and examples hook it).
	listen       string
	publishEvery time.Duration
	listenReady  func(addr string)
}

// errInterrupted aborts ingestion from inside the stream callback when a
// shutdown signal arrives; runFollow treats it as a clean stop, not an
// error.
var errInterrupted = errors.New("interrupted")

// runFollow is tbdetect's online mode: it feeds the visit stream through
// the sharded detection runtime as it is read, prints congestion alerts
// the moment their interval closes, and finishes with the ranked
// bottleneck snapshot over the final sliding window. Unlike the batch
// path it never materializes the trace: memory is bounded by the window,
// whatever the stream length.
//
// With a checkpoint directory the runtime writes periodic consistent
// cuts; -resume restores the newest one and skips the feed prefix it
// covers. SIGINT/SIGTERM stop ingestion gracefully: open intervals are
// sealed, remaining alerts and the final snapshot print, a final
// checkpoint is written, and the exit is clean (status 0).
func runFollow(r io.Reader, stdout, stderr io.Writer, opts followOpts) error {
	cfg, err := opts.streamConfig()
	if err != nil {
		return err
	}
	cfg.Resume = opts.resume
	rt, err := stream.New(cfg)
	if err != nil {
		return fmt.Errorf("tbdetect: %w", err)
	}

	var skip int64
	if info := rt.ResumeInfo(); opts.resume {
		for _, w := range info.Warnings {
			fmt.Fprintf(stderr, "tbdetect: resume: %s\n", w)
		}
		if info.Resumed {
			skip = info.SkipRecords
			fmt.Fprintf(stderr, "tbdetect: resumed from checkpoint (watermark %v); skipping %d already-incorporated records\n",
				simnet.Std(simnet.Duration(info.Watermark)), skip)
		} else {
			fmt.Fprintln(stderr, "tbdetect: no usable checkpoint; starting cold")
		}
	}

	// Serving layer: everything it reads is either any-goroutine-safe
	// (Metrics, ShardHealth) or published explicitly from this goroutine
	// (snapshots, via atomic pointer swap), so attaching it adds nothing
	// to the shard hot path.
	srv, shutdown, err := startServe(serve.Config{Metrics: rt.Metrics, Health: rt.ShardHealth},
		opts.listen, stderr, opts.listenReady)
	if err != nil {
		rt.Abort()
		return fmt.Errorf("tbdetect: listen: %w", err)
	}
	defer shutdown()
	publishEvery := opts.publishEvery
	if publishEvery <= 0 {
		publishEvery = time.Second
	}

	stop, unhook := stopSignal(opts.stop)
	defer unhook()

	// Alert printer: the single consumer of the merged stream. Idle and
	// normal closures stay silent; congested intervals print as they
	// close, freezes flagged.
	var alerts, freezes int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		alerts, freezes = printAlerts(stdout, srv, rt.Alerts())
	}()

	start := time.Now()
	if srv != nil {
		if skip > 0 {
			// A resuming process is alive but still replaying the feed
			// prefix its checkpoint covers: its published state is behind
			// what a scraper would expect, so readiness waits for the
			// cursor, with the reason on /readyz.
			srv.SetNotReady("resuming")
		} else {
			srv.SetReady(true)
		}
	}
	ioOpts := traceio.StreamOptions{Policy: traceio.Strict}
	if opts.lenient {
		ioOpts.Policy = traceio.Skip
	}
	var invalid, skipped int64
	var lastPub time.Time
	// Records are received as the source yields them but observed in
	// bursts: nothing can close before the runtime has seen a departure at
	// or past its next barrier trigger, so what arrives earlier is held
	// until such a record does (or the hold is full) and then observed in
	// one go. An alert waits for nothing it did not already wait for, and
	// the shard goroutines are woken once per barrier rather than once per
	// read. The release points are a function of the feed alone, not of how
	// its reads fragment.
	held := make([]trace.Visit, 0, traceio.DefaultBatch)
	trigger := rt.NextBarrier()
	release := func() error {
		for i := range held {
			if oerr := rt.Observe(held[i]); oerr != nil {
				if opts.lenient {
					invalid++
					continue
				}
				return oerr
			}
		}
		held = held[:0]
		trigger = rt.NextBarrier()
		return nil
	}
	stats, err := traceio.StreamVisitsOpts(r, ioOpts, func(batch []trace.Visit) error {
		select {
		case <-stop:
			return errInterrupted
		default:
		}
		for i := range batch {
			if skipped < skip {
				// Replay cursor: records the restored checkpoint already
				// covers. Only records Observe would accept count.
				if stream.ValidateVisit(batch[i]) == nil {
					if skipped++; skipped == skip && srv != nil {
						// Caught up to the checkpoint: live ingestion
						// starts with the next record.
						srv.SetReady(true)
					}
				}
				continue
			}
			held = append(held, batch[i])
			if batch[i].Depart >= trigger || len(held) == cap(held) {
				if rerr := release(); rerr != nil {
					return rerr
				}
			}
		}
		if srv != nil && time.Since(lastPub) >= publishEvery {
			// After the observe loop, so /report carries the intervals this
			// hand-off closed. Snapshot here, on the producer goroutine (the
			// runtime's single-producer contract); the server only swaps a
			// pointer.
			srv.PublishSnapshot(rt.Snapshot())
			lastPub = time.Now()
		}
		return nil
	})
	if err == nil {
		err = release() // end of input: nothing left to wait for
	}
	interrupted := errors.Is(err, errInterrupted)
	if srv != nil {
		// Drain starts: flip readiness off first so orchestrators stop
		// routing, then seal and serve the final state until Shutdown.
		srv.SetReady(false)
	}
	if err != nil && !interrupted {
		rt.Close()
		<-done
		return err
	}
	if interrupted {
		fmt.Fprintln(stderr, "tbdetect: interrupted; sealing intervals and writing final state")
	}

	snap := rt.Close()
	<-done
	if srv != nil {
		srv.PublishSnapshot(snap)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "\nfollow: %d congestion alerts (%d freezes) from %d closed intervals\n",
		alerts, freezes, snap.Metrics.IntervalsClosed)
	printFinalSnapshot(stdout, snap, opts.window, opts.top)

	if opts.metrics {
		m := snap.Metrics
		fmt.Fprint(stderr, m.String())
		secs := elapsed.Seconds()
		if secs > 0 {
			fmt.Fprintf(stderr, "  ingest rate             %.0f records/s (wall)\n", float64(m.Ingested)/secs)
		}
		if opts.lenient && (stats.Malformed > 0 || invalid > 0) {
			fmt.Fprintf(stderr, "  lines skipped           %d malformed, %d invalid visits\n",
				stats.Malformed, invalid)
		}
	}
	return nil
}

// startServe brings up the HTTP serving layer on addr, announces the bound
// address on stderr and hands it to ready (tests hook it). The caller
// defers the returned shutdown, which covers every exit path with a 3 s
// drain. An empty addr means no serving layer: a nil server and a no-op
// shutdown. The follow and merge modes both call it before they start
// their alert printer, which fans alerts out to the server it returns.
func startServe(cfg serve.Config, addr string, stderr io.Writer, ready func(addr string)) (*serve.Server, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	srv := serve.New(cfg)
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "tbdetect: listening on http://%s\n", bound)
	if ready != nil {
		ready(bound)
	}
	return srv, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
	}, nil
}

// stopSignal returns the channel whose close asks a long-running mode to
// shut down gracefully — closed on the first SIGINT/SIGTERM, or the
// injected channel itself when non-nil (tests) — and the unhook the
// caller defers to uninstall the handler.
func stopSignal(injected <-chan struct{}) (stop <-chan struct{}, unhook func()) {
	if injected != nil {
		return injected, func() {}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ch := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		select {
		case <-sig:
			close(ch)
		case <-quit:
		}
	}()
	return ch, func() {
		close(quit)
		signal.Stop(sig)
	}
}

// printAlerts is the single consumer of a merged alert stream: congested
// closures print as they seal (freezes flagged) and fan out to the
// serving layer when one is attached. Shared by the follow and merge
// modes so their operator-facing alert lines stay identical. Returns
// the congested and freeze counts once the stream closes.
func printAlerts(stdout io.Writer, srv *serve.Server, ch <-chan stream.Alert) (alerts, freezes int64) {
	for a := range ch {
		if a.State != core.StateCongested {
			continue
		}
		if srv != nil {
			srv.PublishAlert(a)
		}
		alerts++
		verdict := "CONGESTED"
		if a.POI {
			freezes++
			verdict = "FREEZE"
		}
		fmt.Fprintf(stdout, "ALERT %10v  %-12s  load=%-8.1f tp=%-8.0f %s\n",
			simnet.Std(simnet.Duration(a.At)), a.Server, a.Load, a.TP, verdict)
	}
	return alerts, freezes
}

// printFinalSnapshot renders the ranked final window, shared by the
// follow and merge modes.
func printFinalSnapshot(stdout io.Writer, snap *stream.Snapshot, window time.Duration, top int) {
	if len(snap.Ranking) == 0 {
		fmt.Fprintln(stdout, "tbdetect: no intervals closed; nothing to rank")
		return
	}
	fmt.Fprintf(stdout, "\nfinal snapshot (watermark %v, window %v):\n",
		simnet.Std(simnet.Duration(snap.At)), window)
	fmt.Fprintf(stdout, "%-12s  %8s  %12s  %10s  %6s\n",
		"SERVER", "N*", "TPMAX(u/s)", "CONGESTED", "POIs")
	count := 0
	for _, ss := range snap.Ranking {
		if top > 0 && count >= top {
			break
		}
		count++
		fmt.Fprintf(stdout, "%-12s  %8.1f  %12.0f  %9.1f%%  %6d\n",
			ss.Server, ss.NStar.NStar, ss.NStar.TPMax,
			100*ss.CongestedFraction, len(ss.POIs))
	}
	worst := snap.Ranking[0]
	if worst.CongestedFraction > 0 {
		fmt.Fprintf(stdout, "\nmost frequent transient bottleneck: %s (congested %.1f%% of window intervals)\n",
			worst.Server, 100*worst.CongestedFraction)
	} else {
		fmt.Fprintln(stdout, "\nno transient bottlenecks detected")
	}
	// A pure function of the snapshot: the chaos CI jobs byte-diff this
	// output between a golden and a degraded run, so nothing here may
	// depend on wall clocks or iteration order.
	printVerdicts(stdout, cause.AttributeAnalyses(snap.Ranking, cause.Options{Downstream: snap.Graph}))
}

// printVerdicts renders ranked root-cause verdicts, at most five in full
// — the one verdict block batch, follow and merge output share.
func printVerdicts(stdout io.Writer, verdicts []cause.Verdict) {
	if len(verdicts) == 0 {
		return
	}
	fmt.Fprintln(stdout, "\nroot-cause verdicts (most likely first):")
	for i, v := range verdicts {
		if i >= 5 {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(verdicts)-i)
			break
		}
		fmt.Fprintf(stdout, "  %-22s %-12s confidence=%.2f score=%.3f\n",
			v.Kind, v.Server, v.Confidence, v.Score)
		for _, e := range v.Evidence {
			fmt.Fprintf(stdout, "      - %s\n", e)
		}
	}
}
