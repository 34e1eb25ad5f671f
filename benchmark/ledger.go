package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"transientbd"
	"transientbd/internal/agent"
	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/merge"
	"transientbd/internal/serve"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/wal"
	"transientbd/internal/wire"
)

// The ledger is the per-layer half of the benchmark: every layer's public
// functions are called from here, each call inside a span, on the same
// fixed sample of the generated trace, and the per-layer numbers are
// read off those spans. It is the same in every traced run, whichever
// workload the run replays, so a layer's number means one thing.
const (
	// ledgerRecords is the sample: the trace's first 200 k records (20 s
	// of trace time, ~25 MB of JSONL) — enough that a per-record cost is
	// averaged over hundreds of batches, small enough that ~30 layer
	// measurements fit in a few seconds.
	ledgerRecords = 200_000
	// syncedAppends bounds the fsync'd WAL appends: the per-batch cost
	// is a device property, and an unlucky device must not stall the run.
	syncedAppends = 128
	// minMeasure is how long a cheap operation is repeated for.
	minMeasure = 200 * time.Millisecond
	// ledgerPacedFor is the length of the ledger's own open-loop feed.
	ledgerPacedFor = 2 * time.Second
)

// ledgerRun carries one ledger pass: the sample, the tracer every call
// is recorded in, and the numbers so far.
type ledgerRun struct {
	b      *bench
	tr     *tracer
	root   int
	sample *feed
	visits []trace.Visit
	nodes  map[string]*feed
	out    map[string]float64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timed runs f once inside a span and returns the span's length.
func (l *ledgerRun) timed(name string, f func()) time.Duration {
	id := l.tr.begin(name, l.root)
	f()
	l.tr.end(id)
	return l.tr.duration(id)
}

// repeated runs f, one span each time, until minMeasure has been spent,
// and returns the mean span length.
func (l *ledgerRun) repeated(name string, f func()) time.Duration {
	var total time.Duration
	n := 0
	for total < minMeasure {
		total += l.timed(name, f)
		n++
	}
	return total / time.Duration(n)
}

func (l *ledgerRun) perRecord(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(len(l.visits))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drain consumes a runtime's alert stream until it closes.
func drain(ch <-chan stream.Alert) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
		}
	}()
	return &wg
}

// runLedger measures every layer on the sample and returns the numbers
// by metric name (benchmark.explained_share is the traced replay's, not
// the ledger's).
func (b *bench) runLedger(tr *tracer) (map[string]float64, error) {
	l := &ledgerRun{b: b, tr: tr, out: map[string]float64{}, sample: b.in.all.head(ledgerRecords)}
	l.visits = b.in.visits[:l.sample.lines()]
	l.nodes = splitNodes(l.sample, l.visits)
	l.root = tr.begin("benchmark.ledger", -1)
	defer tr.end(l.root)
	for _, step := range []func() error{
		l.traceio, l.batchCore, l.online, l.streamRuntime, l.pipeline, l.wire, l.wal,
		l.agents, l.mergeCore, l.cli, l.public, l.paced,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

func (l *ledgerRun) traceio() error {
	// The callback does nothing, so the call's time is the decoder's own.
	var err error
	before := mallocs()
	self := l.timed("traceio.StreamVisitsOpts", func() {
		_, err = traceio.StreamVisitsOpts(bytes.NewReader(l.sample.data), traceio.StreamOptions{}, func([]trace.Visit) error { return nil })
	})
	allocs := mallocs() - before
	if err != nil {
		return err
	}
	l.out["traceio.decode_ns_per_record"] = l.perRecord(self)
	l.out["traceio.decode_allocs_per_record"] = float64(allocs) / float64(len(l.visits))
	l.out["traceio.decode_mb_per_s"] = float64(len(l.sample.data)) / 1e6 / self.Seconds()
	return nil
}

func (l *ledgerRun) batchCore() error {
	var perServer map[string][]trace.Visit
	l.out["trace.group_ns_per_record"] = l.perRecord(l.repeated("trace.PerServer", func() {
		perServer = trace.PerServer(l.visits)
	}))
	w := core.Window{End: l.visits[len(l.visits)-1].Depart + 1}
	opts := core.Options{Interval: simnet.FromStdDuration(interval)}
	var sys *core.SystemAnalysis
	var err error
	analyze := func(parallelism int) (time.Duration, float64) {
		opts.Parallelism = parallelism
		runs := 0
		before := mallocs()
		d := l.repeated("core.AnalyzeSystemGrouped", func() {
			runs++
			if a, aerr := core.AnalyzeSystemGrouped(perServer, w, opts); aerr != nil {
				err = aerr
			} else {
				sys = a
			}
		})
		return d, float64(mallocs()-before) / float64(runs)
	}
	serial, allocs := analyze(1)
	parallel, _ := analyze(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	l.out["core.batch_analyze_ns_per_record"] = l.perRecord(serial)
	l.out["core.batch_analyze_allocs_per_op"] = allocs
	l.out["core.batch_analyze_parallel_speedup"] = float64(serial) / float64(parallel)

	// The stages AnalyzeServer runs, one server after another.
	var svcT, loadT, tpT, nstarT time.Duration
	for _, vs := range perServer {
		var svc core.ServiceTimes
		svcT += l.timed("core.EstimateServiceTimes", func() { svc, err = core.EstimateServiceTimes(vs, 10) })
		if err != nil {
			return err
		}
		var load, tp []float64
		loadT += l.timed("core.LoadSeries", func() {
			if s, serr := core.LoadSeries(vs, w, opts.Interval); serr != nil {
				err = serr
			} else {
				load = s.Values()
			}
		})
		tpT += l.timed("core.ThroughputSeries", func() {
			if _, serr := core.ThroughputSeries(vs, w, opts.Interval); serr != nil {
				err = serr
			}
			if s, serr := core.NormalizedThroughputSeries(vs, svc, core.WorkUnit(svc), w, opts.Interval); serr != nil {
				err = serr
			} else {
				tp = s.Values()
			}
		})
		if err != nil {
			return err
		}
		nstarT += l.timed("core.EstimateNStar", func() {
			if pts, perr := core.CorrelatePoints(load, tp); perr == nil {
				core.EstimateNStar(pts, core.NStarOptions{}) //nolint:errcheck // an unsaturated server has no knee; the cost is what is measured
			}
		})
	}
	l.out["core.service_times_ns_per_record"] = l.perRecord(svcT)
	l.out["core.load_series_ns_per_record"] = l.perRecord(loadT)
	l.out["core.throughput_series_ns_per_record"] = l.perRecord(tpT)
	l.out["core.nstar_us_per_server"] = us(nstarT) / float64(len(perServer))

	series := make([]cause.Series, 0, len(sys.PerServer))
	for _, r := range sys.Ranking {
		series = append(series, cause.FromAnalysis(sys.PerServer[r.Server]))
	}
	l.out["cause.attribute_us"] = us(l.repeated("cause.Attribute", func() { cause.Attribute(series, cause.Options{}) }))
	return nil
}

// online feeds one core.Online the busiest server's visits, advancing it
// the way a shard does at each barrier.
func (l *ledgerRun) online() error {
	perServer := trace.PerServer(l.visits)
	var vs []trace.Visit
	for _, s := range perServer {
		if len(s) > len(vs) {
			vs = s
		}
	}
	cfg := streamConfig(1)
	o, err := core.NewOnline(0, cfg.Online)
	if err != nil {
		return err
	}
	iv, lag := cfg.Online.Options.Interval, cfg.FlushLag
	var advance time.Duration
	var mark simnet.Time
	var alerts []core.Alert
	before := mallocs()
	total := l.timed("core.Online.Observe", func() {
		for i := range vs {
			o.Observe(vs[i])
			if w := ((vs[i].Depart - lag) / iv) * iv; w >= mark+8*iv {
				t := time.Now()
				alerts = o.AdvanceAppend(w, alerts[:0])
				advance += time.Since(t)
				mark = w
			}
		}
	})
	allocs := mallocs() - before
	l.out["core.online_observe_ns_per_record"] = float64((total - advance).Nanoseconds()) / float64(len(vs))
	l.out["core.online_allocs_per_record"] = float64(allocs) / float64(len(vs))
	if closed := o.IntervalsClosed(); closed > 0 {
		l.out["core.online_advance_us_per_interval"] = us(advance) / float64(closed)
	}
	l.out["core.online_snapshot_us"] = us(l.repeated("core.Online.Snapshot", func() { o.Snapshot() }))
	var state []byte
	l.out["core.online_marshal_us"] = us(l.repeated("core.Online.MarshalState", func() { state, err = o.MarshalState() }))
	l.out["core.online_state_bytes"] = float64(len(state))
	return err
}

// ingest runs the pre-decoded sample through a runtime: Observe every
// record, drain Alerts(), Close. beforeClose, when set, runs between the
// last Observe and Close.
func (l *ledgerRun) ingest(cfg stream.Config, spanName string, beforeClose func(rt *stream.Runtime)) (total, closeT time.Duration, queueMax int64, m stream.Metrics, err error) {
	rt, err := stream.New(cfg)
	if err != nil {
		return 0, 0, 0, m, err
	}
	done := drain(rt.Alerts())
	total = l.timed(spanName, func() {
		for i := range l.visits {
			if err = rt.Observe(l.visits[i]); err != nil {
				return
			}
			if i%4096 == 0 {
				for _, h := range rt.ShardHealth() {
					if h.Queued > queueMax {
						queueMax = h.Queued
					}
				}
			}
		}
	})
	if err != nil {
		rt.Abort()
		done.Wait()
		return 0, 0, 0, m, err
	}
	if beforeClose != nil {
		beforeClose(rt)
	}
	var snap *stream.Snapshot
	closeT = l.timed("stream.Close", func() { snap = rt.Close() })
	done.Wait()
	return total + closeT, closeT, queueMax, snap.Metrics, nil
}

func (l *ledgerRun) streamRuntime() error {
	one, _, _, _, err := l.ingest(streamConfig(1), "stream.Observe.shards1", nil)
	if err != nil {
		return err
	}
	l.out["stream.ingest_ns_per_record.shards1"] = l.perRecord(one)

	before := mallocs()
	var afterIngest uint64
	var snapT time.Duration
	many, closeT, queueMax, m, err := l.ingest(streamConfig(runtime.GOMAXPROCS(0)), "stream.Observe.shardsN", func(rt *stream.Runtime) {
		afterIngest = mallocs()
		// Mid-stream: the window is full of open state, as it is when
		// the serving layer asks once a second.
		var snap *stream.Snapshot
		snapT = l.timed("stream.Snapshot", func() { snap = rt.Snapshot() })
		srv := serve.New(serve.Config{Metrics: rt.Metrics, Health: rt.ShardHealth})
		l.out["serve.publish_snapshot_us"] = us(l.repeated("serve.PublishSnapshot", func() { srv.PublishSnapshot(snap) }))
		get := func(path string) func() {
			return func() {
				srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
			}
		}
		l.out["serve.metrics_scrape_us"] = us(l.repeated("serve.metrics", get("/metrics")))
		l.out["serve.report_scrape_us"] = us(l.repeated("serve.report", get("/report")))
	})
	if err != nil {
		return err
	}
	l.out["stream.ingest_ns_per_record.shardsN"] = l.perRecord(many)
	l.out["stream.allocs_per_record"] = float64(afterIngest-before) / float64(len(l.visits))
	l.out["stream.queue_depth_max"] = float64(queueMax)
	l.out["stream.close_ms"] = ms(closeT)
	l.out["stream.snapshot_ms"] = ms(snapT)
	l.out["stream.intervals_closed"] = float64(m.IntervalsClosed)
	l.out["stream.records_late"] = float64(m.Late)
	l.out["stream.records_dropped"] = float64(m.Dropped)

	// One explicit checkpoint cut of the full window, written to the work
	// directory; the automatic cadence is pushed out of the sample's reach.
	dir := filepath.Join(l.b.d.work, "ledger-ckpt")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cfg := streamConfig(runtime.GOMAXPROCS(0))
	cfg.CheckpointDir, cfg.CheckpointEvery = dir, simnet.Duration(1)<<50
	var ckptErr error
	_, _, _, _, err = l.ingest(cfg, "stream.Observe.checkpointed", func(rt *stream.Runtime) {
		l.out["stream.checkpoint_ms"] = ms(l.timed("stream.Checkpoint", func() { ckptErr = rt.Checkpoint() }))
		l.out["stream.checkpoint_bytes"] = float64(dirBytes(dir))
	})
	if err == nil {
		err = ckptErr
	}
	return err
}

func dirBytes(dir string) (n int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// followPipeline is the blocking path of tbdetect -follow, in-process:
// decode in traceio batches, Observe each record, Close. Every call into
// a layer is a span under parent; with a nil tracer it is the untraced
// twin. onBatch, when set, runs at the top of each callback, where
// runFollow publishes its once-a-second snapshot.
func followPipeline(tr *tracer, parent int, r io.Reader, shards int, onBatch func(rt *stream.Runtime, parent int)) (wall time.Duration, snap *stream.Snapshot, alerts []stream.Alert, err error) {
	rt, err := stream.New(streamConfig(shards))
	if err != nil {
		return 0, nil, nil, err
	}
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for a := range rt.Alerts() {
			if a.State == core.StateCongested {
				alerts = append(alerts, a)
			}
		}
	}()
	begin := time.Now()
	decode := tr.begin("traceio.StreamVisitsOpts", parent)
	_, err = traceio.StreamVisitsOpts(r, traceio.StreamOptions{}, func(batch []trace.Visit) error {
		if onBatch != nil {
			onBatch(rt, decode)
		}
		id := tr.begin("stream.Observe", decode)
		defer tr.end(id)
		for i := range batch {
			if err := rt.Observe(batch[i]); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(decode)
	if err != nil {
		rt.Abort()
		done.Wait()
		return 0, nil, nil, err
	}
	id := tr.begin("stream.Close", parent)
	snap = rt.Close()
	tr.end(id)
	done.Wait()
	return time.Since(begin), snap, alerts, nil
}

// pipeline runs followPipeline over the sample untraced and traced: the
// difference is the tracing overhead, and the traced run shows how much
// of the producer's wall time is spent inside the runtime rather than
// decoding.
func (l *ledgerRun) pipeline() error {
	shards := runtime.GOMAXPROCS(0)
	plain, _, _, err := followPipeline(nil, -1, bytes.NewReader(l.sample.data), shards, nil)
	if err != nil {
		return err
	}
	first := l.tr.count()
	traced, _, _, err := followPipeline(l.tr, l.root, bytes.NewReader(l.sample.data), shards, nil)
	if err != nil {
		return err
	}
	var busy int64
	for _, s := range l.tr.since(first) {
		if s.Name == "stream.Observe" || s.Name == "stream.Close" {
			busy += s.EndNS - s.StartNS
		}
	}
	l.out["stream.producer_busy_share"] = float64(busy) / float64(traced.Nanoseconds())
	l.out["benchmark.trace_overhead_share"] = float64(traced)/float64(plain) - 1
	return nil
}

func (l *ledgerRun) wire() error {
	bs := batches(l.visits)
	var buf bytes.Buffer
	var err error
	encode := func() {
		buf.Reset()
		w := wire.NewWriter(&buf)
		for i, b := range bs {
			if werr := w.WriteBatch(wire.Batch{Seq: uint64(i + 1), Visits: b}); werr != nil {
				err = werr
			}
		}
		if werr := w.Flush(); werr != nil {
			err = werr
		}
	}
	decode := func() {
		r := wire.NewReader(bytes.NewReader(buf.Bytes()))
		for range bs {
			if _, rerr := r.Read(); rerr != nil {
				err = rerr
			}
		}
	}
	l.out["wire.encode_ns_per_record"] = l.perRecord(l.repeated("wire.WriteBatch", encode))
	l.out["wire.bytes_per_record"] = float64(buf.Len()) / float64(len(l.visits))
	l.out["wire.decode_ns_per_record"] = l.perRecord(l.repeated("wire.Read", decode))
	l.out["wire.frame_roundtrip_ns_per_record"] = l.perRecord(l.repeated("wire.roundtrip", func() { encode(); decode() }))
	return err
}

func (l *ledgerRun) wal() error {
	var bodies [][]byte
	for _, b := range batches(l.visits) {
		bodies = append(bodies, wire.AppendVisits(nil, b))
	}
	appendAll := func(name string, noSync bool, bodies [][]byte) (*wal.Log, time.Duration, error) {
		dir := filepath.Join(l.b.d.work, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		log, _, err := wal.Open(wal.Options{Dir: dir, NoSync: noSync})
		if err != nil {
			return nil, 0, err
		}
		d := l.timed("wal.Append", func() {
			for i, body := range bodies {
				if aerr := log.Append(uint64(i+1), body); aerr != nil {
					err = aerr
					return
				}
			}
		})
		return log, d, err
	}
	synced := bodies
	if len(synced) > syncedAppends {
		synced = synced[:syncedAppends]
	}
	log, d, err := appendAll("ledger-wal-sync", false, synced)
	if err != nil {
		return err
	}
	log.Close()
	l.out["wal.append_us_per_batch"] = us(d) / float64(len(synced))

	log, d, err = appendAll("ledger-wal", true, bodies)
	if err != nil {
		return err
	}
	defer log.Close()
	l.out["wal.append_nosync_us_per_batch"] = us(d) / float64(len(bodies))
	l.out["wal.bytes_per_record"] = float64(dirBytes(filepath.Join(l.b.d.work, "ledger-wal"))) / float64(len(l.visits))
	l.out["wal.replay_ns_per_record"] = l.perRecord(l.repeated("wal.Cursor.Next", func() {
		cur, cerr := log.ReadCursor(1)
		if cerr != nil {
			err = cerr
			return
		}
		defer cur.Close()
		for {
			if _, _, nerr := cur.Next(); nerr == io.EOF {
				return
			} else if nerr != nil {
				err = nerr
				return
			}
		}
	}))
	l.out["wal.truncate_us"] = us(l.timed("wal.TruncateThrough", func() {
		if _, terr := log.TruncateThrough(log.LastSeq()); terr != nil {
			err = terr
		}
	}))
	return err
}

// loopback runs one agent per node in-process against a merge.Server on
// loopback, each agent.Run inside a span, until the head has its final
// snapshot. It returns how long the busiest agent (the one with most
// records) ran, the agents' summed metrics, and that snapshot.
func loopback(tr *tracer, parent int, nodes map[string]*feed, walRoot string) (time.Duration, agent.Metrics, *stream.Snapshot, error) {
	var sum agent.Metrics
	srv, err := merge.NewServer(merge.ServerConfig{Core: mergeConfig(runtime.GOMAXPROCS(0))})
	if err != nil {
		return 0, sum, nil, err
	}
	defer srv.Close()
	done := drain(srv.Alerts())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, sum, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passDeadline)
	defer cancel()
	errs := make([]error, len(nodeNames))
	got := make([]agent.Metrics, len(nodeNames))
	ran := make([]time.Duration, len(nodeNames))
	var wg sync.WaitGroup
	for i, node := range nodeNames {
		cfg := agent.Config{Node: node, Addr: addr, BatchSize: agentBatch, MaxDials: 3}
		if walRoot != "" {
			cfg.WALDir = filepath.Join(walRoot, "wal-"+node)
			if err := os.RemoveAll(cfg.WALDir); err != nil {
				return 0, sum, nil, err
			}
		}
		wg.Add(1)
		go func(i int, cfg agent.Config) {
			defer wg.Done()
			id := tr.begin("agent.Run."+cfg.Node, parent)
			begin := time.Now()
			got[i], errs[i] = agent.Run(ctx, bytes.NewReader(nodes[cfg.Node].data), cfg)
			ran[i] = time.Since(begin)
			tr.end(id)
		}(i, cfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, sum, nil, err
		}
	}
	select {
	case <-srv.Done():
	case <-ctx.Done():
		return 0, sum, nil, fmt.Errorf("merge head not done: %w", ctx.Err())
	}
	snap := srv.Final()
	srv.Close()
	done.Wait()
	busiest := 0
	for i, m := range got {
		sum.RecordsRead += m.RecordsRead
		sum.BatchesSent += m.BatchesSent
		sum.Retransmits += m.Retransmits
		if m.RecordsRead > got[busiest].RecordsRead {
			busiest = i
		}
	}
	return ran[busiest], sum, snap, nil
}

func (l *ledgerRun) agents() error {
	id := l.tr.begin("agent.loopback", l.root)
	plain, m, _, err := loopback(l.tr, id, l.nodes, "")
	l.tr.end(id)
	if err != nil {
		return err
	}
	if int(m.RecordsRead) != len(l.visits) {
		return fmt.Errorf("ledger agents read %d of %d records", m.RecordsRead, len(l.visits))
	}
	id = l.tr.begin("agent.loopback.wal", l.root)
	withWAL, _, _, err := loopback(l.tr, id, l.nodes, l.b.d.work)
	l.tr.end(id)
	if err != nil {
		return err
	}
	// Per record of the busiest agent's feed, with the JSONL decode it
	// drives (measured above on the same kind of lines) taken out: what is
	// left is cutting, framing, the WAL, and waiting for the head's acks.
	busiest := 0
	for _, f := range l.nodes {
		if f.lines() > busiest {
			busiest = f.lines()
		}
	}
	decode := l.out["traceio.decode_ns_per_record"]
	l.out["agent.run_ns_per_record"] = float64(plain.Nanoseconds())/float64(busiest) - decode
	l.out["agent.run_wal_ns_per_record"] = float64(withWAL.Nanoseconds())/float64(busiest) - decode
	l.out["agent.batches_sent"] = float64(m.BatchesSent)
	l.out["agent.retransmits"] = float64(m.Retransmits)
	return nil
}

// mergeCore times the merge head alone — dedup, buffer, node barrier,
// release sort and the runtime underneath — on pre-decoded batches.
func (l *ledgerRun) mergeCore() error {
	var batchT, finishT time.Duration
	_, _, statuses, err := mergeThrough(l.visits, runtime.GOMAXPROCS(0), func(name string, f func()) {
		d := l.timed(name, f)
		if name == "merge.Core.Finish" {
			finishT = d
		} else {
			batchT = d
		}
	})
	if err != nil {
		return err
	}
	l.out["merge.batch_ns_per_record"] = l.perRecord(batchT + finishT)
	l.out["merge.self_ns_per_record"] = l.perRecord(batchT+finishT) - l.out["stream.ingest_ns_per_record.shardsN"]
	l.out["merge.finish_ms"] = ms(finishT)
	var deduped, dropped int64
	for _, st := range statuses {
		deduped += st.Deduped
		dropped += st.Dropped
	}
	l.out["merge.records_deduped"] = float64(deduped)
	l.out["merge.records_dropped"] = float64(dropped)
	return nil
}

// cli times the binary on an empty input: the fixed cost inside every
// pass.
func (l *ledgerRun) cli() error {
	var starts []float64
	for i := 0; i < 5; i++ {
		l.b.tag = fmt.Sprintf("ledger-start%d", i+1)
		ctx, cancel := context.WithTimeout(context.Background(), passDeadline)
		var err error
		d := l.timed("cli.tbdetect", func() {
			var c *child
			if c, err = startChild(ctx, "tbdetect", l.b.d.tbdetect(), nil, true, l.b.logBase("tbdetect"), nil); err == nil {
				c.stdin.Close()
				err = c.wait()
			}
		})
		cancel()
		if err != nil {
			return fmt.Errorf("tbdetect on empty input: %w", err)
		}
		starts = append(starts, ms(d))
	}
	l.out["cli.tbdetect_start_ms"] = median(starts)
	return nil
}

// public times the public surfaces over the same records: the cost of
// transientbd.Analyze and transientbd.Stream over internal/core and
// internal/stream.
func (l *ledgerRun) public() error {
	recs := toRecords(l.visits)
	var err error
	l.out["transientbd.analyze_ns_per_record"] = l.perRecord(l.repeated("transientbd.Analyze", func() {
		_, err = transientbd.Analyze(recs, transientbd.Config{Interval: interval})
	}))
	if err != nil {
		return err
	}
	s, err := transientbd.NewStream(transientbd.StreamConfig{
		OnlineConfig: transientbd.OnlineConfig{Interval: interval, Window: window},
		Shards:       runtime.GOMAXPROCS(0),
		FlushLag:     flushLag,
	})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range s.Alerts() {
		}
	}()
	l.out["transientbd.stream_observe_ns_per_record"] = l.perRecord(l.timed("transientbd.Stream.Observe", func() {
		for i := range recs {
			if oerr := s.Observe(recs[i]); oerr != nil {
				err = oerr
				return
			}
		}
		s.Close()
	}))
	if err != nil {
		s.Abort()
	}
	wg.Wait()
	return err
}

// paced runs the open-loop generator against the in-process decoder for
// a few seconds: how far apart the decoder's callbacks come at the paced
// rate (the batch-fill delay every alert waits out), how late the
// generator itself ran, and the rate it offered.
func (l *ledgerRun) paced() error {
	speed := l.b.pacedSpeed
	f := l.sample.prefix(int64(ledgerPacedFor.Seconds() * speed * 1e6))
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	defer pr.Close()
	var log *feedLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		log = writePaced(pw, f, speed, time.Now())
	}()
	var calls []time.Time
	id := l.tr.begin("traceio.StreamVisitsOpts.paced", l.root)
	_, err = traceio.StreamVisitsOpts(pr, traceio.StreamOptions{}, func([]trace.Visit) error {
		calls = append(calls, time.Now())
		return nil
	})
	l.tr.end(id)
	wg.Wait()
	if err == nil {
		err = log.err
	}
	if err != nil {
		return err
	}
	// The last callback is the end-of-input flush, not a batch fill.
	var gaps []float64
	for i := 1; i < len(calls)-1; i++ {
		gaps = append(gaps, ms(calls[i].Sub(calls[i-1])))
	}
	if len(gaps) == 0 {
		return fmt.Errorf("paced ledger feed of %d records filled fewer than two decoder batches", f.lines())
	}
	l.out["traceio.callback_gap_ms_p50"] = median(gaps)
	lag, _ := percentile(sortedCopy(log.lagMS), 0.95)
	l.out["benchmark.gen_lag_ms_p95"] = lag
	span := float64(f.depart[f.lines()-1]-f.depart[0]) / 1e6 / speed
	l.out["benchmark.offered_records_per_s"] = float64(f.lines()) / span
	return nil
}
