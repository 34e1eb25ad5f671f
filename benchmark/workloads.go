package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The four workloads. Each `why` is the one-line reason BENCHMARK.json
// carries; the README has the long form.
const (
	wlBatchFile   = "batch-file"
	wlFollowMax   = "follow-max"
	wlFollowPaced = "follow-paced"
	wlAgentsMerge = "agents-merge"
)

var workloadNames = []string{wlBatchFile, wlFollowMax, wlFollowPaced, wlAgentsMerge}

// sealAfterUS is the sealing-record threshold past an interval's start:
// its length plus the flush lag.
var sealAfterUS = (interval + flushLag).Microseconds()

// Deadlines: about three times what a pass took when the workloads were
// sized on two cores. A child still running then is killed and every op
// of the pass fails.
const (
	passDeadline  = 30 * time.Second
	pacedSlack    = 20 * time.Second
	agentExitWait = 5 * time.Second
	listenWait    = 5 * time.Second
)

// passResult is one pass of one workload.
type passResult struct {
	wall    time.Duration
	records int
	cpu     time.Duration
	rssKiB  int64
	// attempted/failed count ops: one expected output item each, plus
	// one failed op per record the program reports dropped, late or lost.
	attempted, failed int
	// completed is false when a child failed, was killed at its deadline
	// or was left over: the pass then contributes no timing.
	completed bool
	latencyMS []float64
	genLagMS  []float64
	offered   float64 // records/s offered by the open-loop schedule
	notes     []string
}

func (r *passResult) notef(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// abort fails every expected op of a pass that could not complete.
func (r *passResult) abort(expected int, format string, args ...any) {
	r.completed = false
	r.attempted, r.failed = expected, expected
	r.notef(format, args...)
}

// lineKey names the output item a line reports: the server of a table
// row, the interval start and server of an alert.
func lineKey(line string) string {
	f := strings.Fields(line)
	if len(f) >= 3 && f[0] == "ALERT" {
		return f[1] + " " + f[2]
	}
	if len(f) > 0 {
		return f[0]
	}
	return ""
}

// compare checks got against want item by item: an op fails if its line
// is missing, extra or different from the reference, and one more fails
// if the items all match but come in another order.
func (r *passResult) compare(what string, want, got []string) {
	wantBy := make(map[string]string, len(want))
	for _, w := range want {
		wantBy[lineKey(w)] = w
	}
	r.attempted += len(want)
	failed := 0
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		k := lineKey(g)
		w, ok := wantBy[k]
		switch {
		case !ok || seen[k]:
			r.attempted++
			failed++
			r.notef("%s extra: got %q", what, g)
		case w != g:
			failed++
			r.notef("%s differs: want %q got %q", what, w, g)
		}
		seen[k] = true
	}
	for _, w := range want {
		if !seen[lineKey(w)] {
			failed++
			r.notef("%s missing: want %q", what, w)
		}
	}
	if failed == 0 {
		for i := range want {
			if want[i] != got[i] {
				failed++
				r.notef("%ss out of order from item %d: want %q got %q", what, i, want[i], got[i])
				break
			}
		}
	}
	r.failed += failed
}

func (r *passResult) addUsage(cs ...*child) {
	for _, c := range cs {
		cpu, rss := c.usage()
		r.cpu += cpu
		r.rssKiB += rss
	}
}

// tableRows returns the rows under the first header line starting with
// "SERVER" at or after line from, up to the next blank line.
func tableRows(lines []outLine, from int) (rows []string) {
	in := false
	for _, l := range lines[from:] {
		switch {
		case !in && strings.HasPrefix(l.text, "SERVER"):
			in = true
		case in && strings.TrimSpace(l.text) == "":
			return rows
		case in:
			rows = append(rows, fields(l.text))
		}
	}
	return rows
}

// followOutput is the parsed stdout of tbdetect -follow or tbdetect
// merge: alert lines with their arrival times, and the final snapshot.
type followOutput struct {
	alerts   []string
	alertAt  []time.Time
	snapshot []string
}

func parseFollow(lines []outLine) followOutput {
	var o followOutput
	for i, l := range lines {
		if strings.HasPrefix(l.text, "ALERT ") {
			o.alerts = append(o.alerts, fields(l.text))
			o.alertAt = append(o.alertAt, l.at)
		} else if strings.HasPrefix(l.text, "final snapshot") {
			o.snapshot = tableRows(lines, i)
			break
		}
	}
	return o
}

var selfMetricRE = regexp.MustCompile(`^\s+(records ingested|records dropped|records late|records lost|alerts lost)\s+(\d+)$`)

// selfMetrics reads the counters of the -selfmetrics block on stderr.
func selfMetrics(lines []outLine) map[string]int {
	m := map[string]int{}
	for _, l := range lines {
		if sm := selfMetricRE.FindStringSubmatch(l.text); sm != nil {
			m[sm[1]], _ = strconv.Atoi(sm[2])
		}
	}
	return m
}

// accountLoss adds one failed op per record the runtime reports dropped,
// late or lost, and checks it took in every record it was given.
func (r *passResult) accountLoss(m map[string]int, fed int) {
	ingested, ok := m["records ingested"]
	if !ok {
		r.failed++
		r.attempted++
		r.notef("no self-metrics block on stderr")
		return
	}
	r.records = ingested
	if ingested != fed {
		r.failed++
		r.attempted++
		r.notef("fed %d records, program ingested %d", fed, ingested)
	}
	for _, k := range []string{"records dropped", "records late", "records lost", "alerts lost"} {
		if m[k] > 0 {
			r.failed += m[k]
			r.attempted += m[k]
			r.notef("%s: %d", k, m[k])
		}
	}
}

// alertLatencies times each alert that matches a reference line from
// the moment the last input it depends on was handed over.
func (r *passResult) alertLatencies(ref *followRef, out followOutput, f *feed, log *feedLog) {
	atUS := make(map[string]int64, len(ref.alerts))
	for i, a := range ref.alerts {
		atUS[a] = ref.alertAt[i]
	}
	for i, a := range out.alerts {
		if at, ok := atUS[a]; ok {
			from := log.availableAt(sealingIndex(f, at, sealAfterUS))
			r.latencyMS = append(r.latencyMS, float64(out.alertAt[i].Sub(from))/1e6)
		}
	}
}

// bench is one invocation's state: where things are, the input, and the
// references the selected workload is checked against.
type bench struct {
	d       dirs
	spec    *benchmarkSpec
	in      *input
	seconds float64
	tag     string // names the captured output files of the current pass

	batchRows []string   // batch-file
	follow    *followRef // follow-max and follow-paced
	merge     *followRef // agents-merge

	// pacedSpeed is how much faster than trace time the open-loop
	// generator runs: the whole trace in b.seconds. At 10 s that is 8×,
	// ~80 k records/s, about a quarter of what follow-max sustains — the
	// detector is mostly idle and latency is set by what buffers a
	// record, not by CPU. (A slower schedule over a prefix of the trace
	// was tried first: 3× gave ~35 decoder batches and a few dozen alert
	// bursts per pass, and where the bursts fell against the batch
	// boundaries moved the median ±25 % from seed to seed.)
	pacedSpeed float64
}

// passOf is the function that makes one end-to-end pass of a workload.
func (b *bench) passOf(workload string) func() passResult {
	return map[string]func() passResult{
		wlBatchFile: b.passBatchFile, wlFollowMax: b.passFollowMax,
		wlFollowPaced: b.passFollowPaced, wlAgentsMerge: b.passAgentsMerge,
	}[workload]
}

func (b *bench) logBase(name string) string {
	return filepath.Join(b.d.out, fmt.Sprintf("%s-%s", b.tag, name))
}

// passBatchFile is one input-to-complete-report run of tbdetect -in.
func (b *bench) passBatchFile() (r passResult) {
	ctx, cancel := context.WithTimeout(context.Background(), passDeadline)
	defer cancel()
	begin := time.Now()
	c, err := startChild(ctx, "tbdetect", b.d.tbdetect(), []string{"-in", b.in.path}, false, b.logBase("tbdetect"), nil)
	if err != nil {
		r.abort(len(b.batchRows), "%v", err)
		return r
	}
	err = c.wait()
	r.wall = time.Since(begin)
	r.addUsage(c)
	if err != nil {
		r.abort(len(b.batchRows), "tbdetect -in: %v", err)
		return r
	}
	r.completed = true
	r.records = b.in.all.lines()
	r.compare("report row", b.batchRows, tableRows(c.stdoutLines(), 0))
	// The input is a complete file, there from the start, and every row
	// depends on all of it: the delay of the result is the pass.
	r.latencyMS = []float64{float64(r.wall) / 1e6}
	return r
}

var followArgs = []string{"-follow", "-window", window.String(), "-selfmetrics"}

// passFollowMax pipes the whole trace into tbdetect -follow as fast as
// it drains.
func (b *bench) passFollowMax() (r passResult) {
	expected := len(b.follow.alerts) + len(b.follow.snapshot)
	ctx, cancel := context.WithTimeout(context.Background(), passDeadline)
	defer cancel()
	begin := time.Now()
	c, err := startChild(ctx, "tbdetect", b.d.tbdetect(), followArgs, true, b.logBase("tbdetect"), nil)
	if err != nil {
		r.abort(expected, "%v", err)
		return r
	}
	log := writeClosedLoop(c.stdin, b.in.all)
	err = c.wait()
	r.wall = time.Since(begin)
	r.addUsage(c)
	if err != nil || log.err != nil {
		r.abort(expected, "tbdetect -follow: exit %v, feed %v", err, log.err)
		return r
	}
	r.completed = true
	out := parseFollow(c.stdoutLines())
	r.compare("alert", b.follow.alerts, out.alerts)
	r.compare("snapshot row", b.follow.snapshot, out.snapshot)
	r.accountLoss(selfMetrics(c.stderrLines()), b.in.all.lines())
	r.alertLatencies(b.follow, out, b.in.all, log)
	return r
}

var httpListenRE = regexp.MustCompile(`listening on http://(\S+)`)

// lossCounters are the /metrics families that each add failed ops.
var lossCounters = []string{
	"tbdetect_records_dropped_total", "tbdetect_records_late_total",
	"tbdetect_records_lost_total", "tbdetect_alerts_lost_total",
}

// scrapeLoop polls /metrics once a second over one connection until
// stop closes, returning the scrape count and the highest value seen of
// each loss counter.
func scrapeLoop(addr string, stop <-chan struct{}) (scrapes int, worst map[string]int) {
	worst = map[string]int{}
	client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return scrapes, worst
		case <-tick.C:
		}
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue // the listener goes away when the run ends
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		scrapes++
		for _, line := range strings.Split(string(body), "\n") {
			for _, name := range lossCounters {
				if rest, ok := strings.CutPrefix(line, name+" "); ok {
					if v, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && v > worst[name] {
						worst[name] = v
					}
				}
			}
		}
	}
}

// passFollowPaced is the open-loop run: lines are written at their due
// times, /metrics is scraped once a second, and each alert is timed from
// when its sealing record was due.
func (b *bench) passFollowPaced() (r passResult) {
	expected := len(b.follow.alerts) + len(b.follow.snapshot)
	feed := b.in.all
	span := time.Duration(float64(feed.depart[feed.lines()-1]-feed.depart[0]) * 1e3 / b.pacedSpeed)
	ctx, cancel := context.WithTimeout(context.Background(), span+pacedSlack)
	defer cancel()
	args := append(append([]string(nil), followArgs...), "-listen", "127.0.0.1:0")
	c, addr, err := startAnnounced(ctx, "tbdetect", b.d.tbdetect(), args, true, b.logBase("tbdetect"), httpListenRE)
	if err != nil {
		r.abort(expected, "%v", err)
		return r
	}
	stop := make(chan struct{})
	var scrapes int
	var worst map[string]int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scrapes, worst = scrapeLoop(addr, stop)
	}()
	begin := time.Now()
	log := writePaced(c.stdin, feed, b.pacedSpeed, begin)
	err = c.wait()
	r.wall = time.Since(begin)
	close(stop)
	wg.Wait()
	r.addUsage(c)
	if err != nil || log.err != nil {
		r.abort(expected, "tbdetect -follow -listen: exit %v, feed %v", err, log.err)
		return r
	}
	r.completed = true
	out := parseFollow(c.stdoutLines())
	r.compare("alert", b.follow.alerts, out.alerts)
	r.compare("snapshot row", b.follow.snapshot, out.snapshot)
	r.accountLoss(selfMetrics(c.stderrLines()), feed.lines())
	r.attempted++
	if scrapes == 0 {
		r.failed++
		r.notef("no /metrics scrape succeeded")
	}
	for name, v := range worst {
		if v > 0 {
			r.notef("/metrics %s reached %d", name, v)
		}
	}
	r.alertLatencies(b.follow, out, feed, log)
	r.genLagMS = log.lagMS
	r.offered = float64(feed.lines()) / span.Seconds()
	return r
}

var (
	mergeListenRE = regexp.MustCompile(`merge head listening on (\S+)`)
	nodeLineRE    = regexp.MustCompile(`^node (\S+)\s+(\S+)\s+delivered=(\d+)\s+deduped=(\d+)\s+dropped=(\d+)\s+invalid=(\d+)`)
	agentLineRE   = regexp.MustCompile(`^agent (\S+): (\d+) records read, (\d+) sent in (\d+) batches \((\d+) retransmits\)`)
)

// lostGoodbye reports whether an agent's non-zero exit is the head's
// shutdown race rather than a failure to deliver: it lost its session
// after sending everything, found no head to reconnect to, and gave up.
func lostGoodbye(a *child) bool {
	for _, l := range a.stderrLines() {
		if strings.Contains(l.text, "giving up after") && strings.Contains(l.text, "failed connection attempts") {
			return true
		}
	}
	return false
}

// passAgentsMerge runs the merge head and one WAL-backed agent per node
// over loopback, each agent reading its node's file.
func (b *bench) passAgentsMerge() (r passResult) {
	expected := len(b.merge.alerts) + len(b.merge.snapshot) + 3*len(nodeNames)
	ctx, cancel := context.WithTimeout(context.Background(), passDeadline)
	defer cancel()
	begin := time.Now()
	head, addr, err := startAnnounced(ctx, "head", b.d.tbdetect(),
		[]string{"merge", "-expect", strings.Join(nodeNames, ","), "-window", window.String(), "-listen", "127.0.0.1:0", "-selfmetrics"},
		false, b.logBase("head"), mergeListenRE)
	if err != nil {
		r.abort(expected, "%v", err)
		return r
	}
	var agents []*child
	for _, node := range nodeNames {
		walDir := filepath.Join(b.d.work, "wal-"+node)
		if err := os.RemoveAll(walDir); err != nil {
			r.notef("%v", err)
		}
		a, err := startChild(ctx, "agent-"+node, b.d.tbdetect(),
			[]string{"agent", "-node", node, "-head", addr, "-in", b.in.nodePath(node), "-wal", walDir, "-maxdials", "3"},
			false, b.logBase("agent-"+node), nil)
		if err != nil {
			cancel()
			head.kill()
			for _, started := range agents {
				started.kill()
			}
			r.abort(expected, "%v", err)
			return r
		}
		agents = append(agents, a)
	}
	headErr := head.wait()
	r.wall = time.Since(begin)
	// The head is done; an agent still running shortly after is a
	// leftover (it would redial a head that is gone): it is killed and
	// its exit fails below.
	grace := time.AfterFunc(agentExitWait, cancel)
	agentErrs := make([]error, len(agents))
	for i, a := range agents {
		agentErrs[i] = a.wait()
	}
	grace.Stop()
	r.addUsage(append(agents, head)...)
	if headErr != nil {
		r.abort(expected, "merge head: %v (agents: %v)", headErr, agentErrs)
		return r
	}
	r.completed = true
	lines := head.stdoutLines()
	out := parseFollow(lines)
	r.compare("alert", b.merge.alerts, out.alerts)
	r.compare("snapshot row", b.merge.snapshot, out.snapshot)
	r.accountLoss(selfMetrics(head.stderrLines()), b.in.all.lines())
	// Per node: the head must have applied exactly the agent's feed, with
	// nothing deduplicated, dropped or invalid in a fault-free run, and
	// the agent must have read and sent all of it.
	var wantNodes, gotNodes, wantAgents, gotAgents []string
	for _, l := range lines {
		if m := nodeLineRE.FindStringSubmatch(l.text); m != nil {
			gotNodes = append(gotNodes, fmt.Sprintf("%s %s delivered=%s deduped=%s dropped=%s invalid=%s", m[1], m[2], m[3], m[4], m[5], m[6]))
		}
	}
	for i, node := range nodeNames {
		n := b.in.nodes[node].lines()
		wantNodes = append(wantNodes, fmt.Sprintf("%s eof delivered=%d deduped=0 dropped=0 invalid=0", node, n))
		wantAgents = append(wantAgents, fmt.Sprintf("%s read=%d sent=%d retransmits=0", node, n, n))
		for _, l := range agents[i].stdoutLines() {
			if m := agentLineRE.FindStringSubmatch(l.text); m != nil {
				gotAgents = append(gotAgents, fmt.Sprintf("%s read=%s sent=%s retransmits=%s", m[1], m[2], m[3], m[5]))
			}
		}
	}
	r.compare("node line", wantNodes, gotNodes)
	r.compare("agent line", wantAgents, gotAgents)
	for i, a := range agents {
		r.attempted++
		switch {
		case agentErrs[i] == nil:
		case lostGoodbye(a):
			// Known at this commit, in about one pass in 25 on two cores:
			// the head closes the last agent's connection before that
			// agent has read the Goodbye echo; the agent, with every
			// batch acknowledged (its summary line and the head's node
			// line are checked above), redials a head that has exited
			// and gives up with status 1. The head's output is complete,
			// so no expected item fails; the run's notes carry it.
			r.notef("anomaly: %s exited non-zero after complete, acknowledged delivery: the head closed the connection before the Goodbye echo arrived (%v)", a.name, agentErrs[i])
		default:
			r.failed++
			r.notef("%s: %v", a.name, agentErrs[i])
		}
	}
	// The agents' inputs are complete files, there from the start; as on
	// batch-file, the delay reported is that of the complete result.
	r.latencyMS = []float64{float64(r.wall) / 1e6}
	return r
}
