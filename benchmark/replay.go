package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/serve"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// A traced run has three parts. One untraced pass of the workload
// through the built binary gives the end-to-end wall time per record.
// The replay then does in-process, on the same input, what that binary
// does — every call into a layer inside a span — and its spans go to
// benchmark/out/trace-<workload>.json. benchmark.explained_share is the
// replay's time per record over the binary's: how much of what a user
// waits for the layers account for. Last comes the ledger (ledger.go).

// replayed is what a replay hands back for checking and accounting.
type replayed struct {
	records int
	rows    []string // batch-file: the report rows
	alerts  []string // the online workloads: alert lines, then snapshot rows
	snap    []string
}

func alertLines(alerts []stream.Alert) (lines []string) {
	for _, a := range alerts {
		lines = append(lines, alertLine(a))
	}
	return lines
}

// replayBatchFile is tbdetect -in: decode the file in batches, group by
// server as they arrive, analyze, attribute, format.
func (b *bench) replayBatchFile(tr *tracer, root int) (replayed, error) {
	f, err := os.Open(b.in.path)
	if err != nil {
		return replayed{}, err
	}
	defer f.Close()
	perServer := map[string][]trace.Visit{}
	var maxDepart simnet.Time
	total := 0
	decode := tr.begin("traceio.StreamVisitsOpts", root)
	_, err = traceio.StreamVisitsOpts(f, traceio.StreamOptions{}, func(batch []trace.Visit) error {
		id := tr.begin("cli.group", decode)
		for _, v := range batch {
			perServer[v.Server] = append(perServer[v.Server], v)
			if v.Depart > maxDepart {
				maxDepart = v.Depart
			}
		}
		total += len(batch)
		tr.end(id)
		return nil
	})
	tr.end(decode)
	if err != nil {
		return replayed{}, err
	}
	id := tr.begin("core.AnalyzeSystemGrouped", root)
	sys, err := core.AnalyzeSystemGrouped(perServer, core.Window{End: maxDepart + 1}, core.Options{Interval: simnet.FromStdDuration(interval)})
	tr.end(id)
	if err != nil {
		return replayed{}, err
	}
	id = tr.begin("cause.Attribute", root)
	series := make([]cause.Series, 0, len(sys.PerServer))
	for _, a := range sys.PerServer {
		series = append(series, cause.FromAnalysis(a))
	}
	cause.Attribute(series, cause.Options{})
	tr.end(id)
	out := replayed{records: total}
	id = tr.begin("cli.print", root)
	for _, r := range sys.Ranking {
		out.rows = append(out.rows, fields(fmt.Sprintf("%s %.1f %.0f %.1f%% %d %d",
			r.Server, r.NStar, r.TPMax, 100*r.CongestedFraction, r.CongestedIntervals, r.POICount)))
	}
	tr.end(id)
	return out, nil
}

func (b *bench) replayFollowMax(tr *tracer, root int) (replayed, error) {
	_, snap, alerts, err := followPipeline(tr, root, bytes.NewReader(b.in.all.data), runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return replayed{}, err
	}
	return replayed{records: int(snap.Metrics.Ingested), alerts: alertLines(alerts), snap: snapshotRows(snap)}, nil
}

// replayFollowPaced reads the open-loop feed from a pipe and, like
// tbdetect -follow -listen, takes and publishes a snapshot on the
// producer goroutine once a second.
func (b *bench) replayFollowPaced(tr *tracer, root int) (replayed, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return replayed{}, err
	}
	defer pr.Close()
	var log *feedLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		log = writePaced(pw, b.in.all, b.pacedSpeed, time.Now())
	}()
	var srv *serve.Server
	var lastPub time.Time
	_, snap, alerts, err := followPipeline(tr, root, pr, runtime.GOMAXPROCS(0), func(rt *stream.Runtime, parent int) {
		if srv == nil {
			srv = serve.New(serve.Config{Metrics: rt.Metrics, Health: rt.ShardHealth})
		}
		if time.Since(lastPub) < time.Second {
			return
		}
		id := tr.begin("stream.Snapshot", parent)
		s := rt.Snapshot()
		tr.end(id)
		id = tr.begin("serve.PublishSnapshot", parent)
		srv.PublishSnapshot(s)
		tr.end(id)
		lastPub = time.Now()
	})
	wg.Wait()
	if err == nil {
		err = log.err
	}
	if err != nil {
		return replayed{}, err
	}
	return replayed{records: int(snap.Metrics.Ingested), alerts: alertLines(alerts), snap: snapshotRows(snap)}, nil
}

// replayAgentsMerge runs both agents, WAL on, and the merge head in this
// process over loopback. Its alerts are consumed inside the head, so the
// check is the final snapshot and the record count.
func (b *bench) replayAgentsMerge(tr *tracer, root int) (replayed, error) {
	_, m, snap, err := loopback(tr, root, b.in.nodes, b.d.work)
	if err != nil {
		return replayed{}, err
	}
	return replayed{records: int(m.RecordsRead), snap: snapshotRows(snap)}, nil
}

// tracedRun is the --trace 1 run of one workload.
func (b *bench) tracedRun(workload string, env envInfo) (result, []string, error) {
	res := result{Metrics: map[string]metricValue{}}
	var notes []string

	// End-to-end wall per record, tracing off. The open-loop workload's
	// wall is its schedule, in the binary and in the replay alike, so it
	// needs no child pass.
	var e2eNSPerRecord float64
	if workload != wlFollowPaced {
		b.tag = workload + "-traced-e2e"
		p := b.passOf(workload)()
		res.Attempted += p.attempted
		res.Failed += p.failed
		notes = append(notes, p.notes...)
		if !p.completed || p.records == 0 {
			return res, notes, fmt.Errorf("end-to-end pass of %s did not complete", workload)
		}
		e2eNSPerRecord = float64(p.wall.Nanoseconds()) / float64(p.records)
	}

	tr := newTracer(workload)
	root := tr.begin("benchmark.replay", -1)
	var got replayed
	var err error
	var wantAlerts, wantSnap, wantRows []string
	switch workload {
	case wlBatchFile:
		got, err = b.replayBatchFile(tr, root)
		wantRows = b.batchRows
	case wlFollowMax:
		got, err = b.replayFollowMax(tr, root)
		wantAlerts, wantSnap = b.follow.alerts, b.follow.snapshot
	case wlFollowPaced:
		got, err = b.replayFollowPaced(tr, root)
		wantAlerts, wantSnap = b.follow.alerts, b.follow.snapshot
	case wlAgentsMerge:
		got, err = b.replayAgentsMerge(tr, root)
		wantSnap = b.merge.snapshot
	}
	tr.end(root)
	if err != nil {
		return res, notes, fmt.Errorf("replay: %w", err)
	}
	var check passResult
	check.compare("replay report row", wantRows, got.rows)
	if wantAlerts != nil {
		check.compare("replay alert", wantAlerts, got.alerts)
	}
	check.compare("replay snapshot row", wantSnap, got.snap)
	res.Attempted += check.attempted
	res.Failed += check.failed
	notes = append(notes, check.notes...)

	replaySpans := tr.since(0)
	replayWall := tr.duration(root)
	bySelf := layerSelf(replaySpans, func(s *span) bool { return s.ID != root })
	var explained float64
	if workload == wlFollowPaced {
		// The producer mostly waits for the schedule: the share reported
		// is the part of the wall it was busy — in the runtime and the
		// serving layer by the spans, in the decoder by the ledger's cost
		// per record (its span cannot tell decoding from waiting).
		busy := float64(bySelf["stream"] + bySelf["serve"])
		explained = busy / float64(replayWall.Nanoseconds())
	} else {
		explained = float64(replayWall.Nanoseconds()) / float64(got.records) / e2eNSPerRecord
	}

	ledger, err := b.runLedger(tr)
	if err != nil {
		return res, notes, fmt.Errorf("ledger: %w", err)
	}
	if workload == wlFollowPaced {
		explained += ledger["traceio.decode_ns_per_record"] * float64(got.records) / float64(replayWall.Nanoseconds())
	}
	ledger["benchmark.explained_share"] = explained
	if err := b.report(&res, ledger, b.spec.PerLayer); err != nil {
		return res, notes, err
	}
	res.Correct = res.Failed == 0

	layers := make([]string, 0, len(bySelf))
	for l := range bySelf {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return bySelf[layers[i]] > bySelf[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.0f ns", l, float64(bySelf[l])/float64(got.records)))
	}
	against := fmt.Sprintf("binary %.0f ns/record", e2eNSPerRecord)
	if workload == wlFollowPaced {
		against = "paced by the schedule"
	}
	notes = append(notes, fmt.Sprintf("replay self time per record by layer: %s; replay wall %.0f ns/record, %s",
		strings.Join(parts, ", "), float64(replayWall.Nanoseconds())/float64(got.records), against))

	err = writeSpanFile(filepath.Join(b.d.out, "trace-"+workload+".json"),
		spanFile{Env: env, Workload: workload, LayerSelfNS: bySelf, Spans: tr.since(0)})
	return res, notes, err
}
