package cli

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// httpGetBody fetches one URL, returning status code and body.
func httpGetBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// pollUntil retries fn every 20ms until it returns true or the deadline
// expires.
func pollUntil(t *testing.T, what string, timeout time.Duration, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type sseEvent struct{ name, data string }

// sseSubscribe opens base's /alerts stream and returns its events as they
// arrive; the channel closes when the server ends the stream.
func sseSubscribe(t *testing.T, base string) <-chan sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/alerts")
	if err != nil {
		t.Fatalf("GET /alerts: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/alerts Content-Type = %q", ct)
	}
	events := make(chan sseEvent, 1024)
	go func() {
		defer close(events)
		var cur sseEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.name != "" {
					events <- cur
				}
				cur = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return events
}

// TestFollowServe drives the full served pipeline in-process: a
// simulated trace fed through runFollow with -listen, every endpoint
// exercised against the live runtime, an SSE subscriber receiving real
// alerts, and a stop signal while the feed is still open — the clean
// drain must end the stream with "end".
func TestFollowServe(t *testing.T) {
	tracePath := genTrace(t)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	var stdout, stderrBuf bytes.Buffer
	runDone := make(chan error, 1)
	stop := make(chan struct{})
	const publishEvery = 20 * time.Millisecond
	go func() {
		err := runFollow(pr, &stdout, &stderrBuf, followOpts{
			detectFlags: detectFlags{
				interval: 50 * time.Millisecond,
				window:   2 * time.Minute,
				flushLag: time.Second,
				shards:   4,
				metrics:  true,
			},
			stop:         stop,
			listen:       "127.0.0.1:0",
			publishEvery: publishEvery,
			listenReady:  func(addr string) { addrCh <- addr },
		})
		pr.Close() // a feeder still writing after the stop must not block
		runDone <- err
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-runDone:
		t.Fatalf("runFollow exited before listening: %v\nstderr: %s", err, stderrBuf.String())
	case <-time.After(15 * time.Second):
		t.Fatal("listener never came up")
	}

	// Subscribe to /alerts before feeding any data, so every alert the
	// feed produces is published after this subscription exists.
	events := sseSubscribe(t, base)

	// Feed most of the trace, keeping the pipe open so the pipeline
	// stays live while the endpoints are probed. runFollow publishes to
	// /report after a hand-off once publishEvery has passed, so the feed
	// comes in two parts far enough apart for a publish to fall due while
	// records are still arriving — the snapshot it takes then holds the
	// intervals the first part closed, and stays up when the feed stalls.
	feedRest := make(chan struct{})
	feedDone := make(chan struct{})
	split := len(data) * 3 / 4
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	go func() {
		defer close(feedDone)
		if _, err := pw.Write(data[:split/2]); err != nil {
			return
		}
		time.Sleep(2 * publishEvery)
		if _, err := pw.Write(data[split/2 : split]); err != nil {
			return
		}
		<-feedRest
		// The stop is honoured at the next read, so one more line follows
		// it; the writes fail once the run has returned.
		pw.Write(data[split:lastLine]) //nolint:errcheck
		close(stop)
		pw.Write(data[lastLine:]) //nolint:errcheck
		pw.Close()
	}()

	if code, body := httpGetBody(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/report") {
		t.Errorf("GET /: code %d body %q", code, body)
	}
	if code, _ := httpGetBody(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("GET /healthz: code %d, want 200", code)
	}
	pollUntil(t, "/readyz to report ready", 10*time.Second, func() bool {
		code, _ := httpGetBody(t, base+"/readyz")
		return code == http.StatusOK
	})

	ingestedRe := regexp.MustCompile(`tbdetect_records_ingested_total ([1-9][0-9]*)`)
	pollUntil(t, "ingested records in /metrics", 30*time.Second, func() bool {
		code, body := httpGetBody(t, base+"/metrics")
		return code == http.StatusOK && ingestedRe.MatchString(body)
	})

	serverRe := regexp.MustCompile(`"server": "([^"]+)"`)
	var firstServer string
	pollUntil(t, "a populated /report snapshot", 30*time.Second, func() bool {
		code, body := httpGetBody(t, base+"/report")
		if code != http.StatusOK {
			return false
		}
		m := serverRe.FindStringSubmatch(body)
		if m == nil {
			return false
		}
		firstServer = m[1]
		return true
	})
	if code, body := httpGetBody(t, base+fmt.Sprintf("/servers/%s/series", firstServer)); code != http.StatusOK ||
		!strings.Contains(body, `"states"`) {
		t.Errorf("GET /servers/%s/series: code %d body %.200s", firstServer, code, body)
	}
	if code, _ := httpGetBody(t, base+"/servers/no-such-server/series"); code != http.StatusNotFound {
		t.Errorf("unknown server series: code %d, want 404", code)
	}

	// Finish the feed and stop: the drain seals the pipeline, the
	// remaining alerts are published, the final snapshot lands, the SSE
	// stream ends with "end", and runFollow returns cleanly.
	close(feedRest)
	<-feedDone
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("runFollow: %v\nstderr: %s", err, stderrBuf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("runFollow did not return after the stop")
	}
	if !strings.Contains(stderrBuf.String(), "interrupted") {
		t.Errorf("the run ended without seeing the stop:\n%s", stderrBuf.String())
	}

	// The subscriber was connected for the whole run, so every alert the
	// workload produced must have streamed to it (this trace congests —
	// the stdout ALERT lines prove it below), closed out by "end".
	var alertEvents int
	var sawEnd bool
	for ev := range events {
		switch ev.name {
		case "alert":
			if !strings.Contains(ev.data, `"congested"`) {
				t.Errorf("alert event payload %q is not congested", ev.data)
			}
			alertEvents++
		case "end":
			sawEnd = true
		}
	}
	if alertEvents == 0 {
		t.Error("no alert events streamed over /alerts")
	}
	if !sawEnd {
		t.Error("alert stream did not finish with an end event")
	}
	if printed := strings.Count(stdout.String(), "ALERT"); printed != alertEvents {
		t.Errorf("stdout printed %d alerts but SSE delivered %d (no drops expected at this rate)",
			printed, alertEvents)
	}

	if !strings.Contains(stderrBuf.String(), "listening on http://") {
		t.Errorf("stderr does not announce the listen address:\n%s", stderrBuf.String())
	}
	if !strings.Contains(stdout.String(), "final snapshot") {
		t.Errorf("no final snapshot in stdout:\n%s", stdout.String())
	}
}

// TestFollowServeBadListen: an unusable listen address must fail fast
// with a clear error, not hang the pipeline.
func TestFollowServeBadListen(t *testing.T) {
	var stdout, stderrBuf bytes.Buffer
	err := runFollow(strings.NewReader(""), &stdout, &stderrBuf, followOpts{
		detectFlags: detectFlags{
			interval: 50 * time.Millisecond,
			window:   time.Minute,
			flushLag: time.Second,
			shards:   1,
		},
		listen: "256.256.256.256:99999",
	})
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("want listen error, got %v", err)
	}
}
