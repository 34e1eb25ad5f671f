package cli

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/chaos"
	"transientbd/internal/serve"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
)

// feedsByNode renders a deterministic workload as per-node JSONL feeds,
// partitioned by server (each server lives on one node, like real
// hosts) and depart-sorted — the per-host completion-log order the
// merge head's node watermark assumes.
func feedsByNode(t *testing.T, n int, byServer map[string]string) map[string][]byte {
	t.Helper()
	vs := chaos.Workload([]string{"web", "app", "db"}, n, 17)
	parts := make(map[string][]trace.Visit)
	for _, v := range vs {
		node, ok := byServer[v.Server]
		if !ok {
			t.Fatalf("no node for server %q", v.Server)
		}
		parts[node] = append(parts[node], v)
	}
	feeds := make(map[string][]byte, len(parts))
	for node, pv := range parts {
		sort.SliceStable(pv, func(i, j int) bool { return pv[i].Depart < pv[j].Depart })
		var buf bytes.Buffer
		if err := traceio.WriteVisits(&buf, pv); err != nil {
			t.Fatalf("encode %s: %v", node, err)
		}
		feeds[node] = buf.Bytes()
	}
	return feeds
}

func TestAgentFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if err := Agent([]string{"-head", "x:1"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "-node is required") {
		t.Errorf("missing -node: got %v", err)
	}
	if err := Agent([]string{"-node", "n1"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "-head is required") {
		t.Errorf("missing -head: got %v", err)
	}
}

// TestFlagFailFast pins the fail-fast contract: misconfiguration dies at
// flag time with a non-nil error — before a socket is dialed or a byte
// of source is read. The -head addresses here are unroutable on
// purpose; if validation leaked past them these cases would hang or
// fail with a dial error instead of the config message.
func TestFlagFailFast(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	emptyKey := filepath.Join(dir, "empty.key")
	if err := os.WriteFile(emptyKey, []byte(" \n"), 0o600); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(args []string, stdout, stderr io.Writer) error
		args []string
		want string
	}{
		{"agent wal is a file", Agent,
			[]string{"-node", "n1", "-head", "203.0.113.1:1", "-wal", notADir}, "-wal"},
		{"agent wal under a file", Agent,
			[]string{"-node", "n1", "-head", "203.0.113.1:1", "-wal", filepath.Join(notADir, "sub")}, "not a writable directory"},
		{"agent both key flags", Agent,
			[]string{"-node", "n1", "-head", "203.0.113.1:1", "-authkey", "k", "-authkeyfile", emptyKey}, "mutually exclusive"},
		{"agent empty key file", Agent,
			[]string{"-node", "n1", "-head", "203.0.113.1:1", "-authkeyfile", emptyKey}, "holds no key"},
		{"agent cert without key", Agent,
			[]string{"-node", "n1", "-head", "203.0.113.1:1", "-tls-cert", notADir}, "must be set together"},
		{"merge cert without key", Merge,
			[]string{"-listen", "127.0.0.1:0", "-tls-cert", notADir}, "-tls-cert and -tls-key"},
		{"merge key without cert", Merge,
			[]string{"-listen", "127.0.0.1:0", "-tls-key", notADir}, "-tls-cert and -tls-key"},
		{"merge ca alone", Merge,
			[]string{"-listen", "127.0.0.1:0", "-tls-ca", notADir}, "-tls-cert and -tls-key"},
		{"merge both key flags", Merge,
			[]string{"-listen", "127.0.0.1:0", "-authkey", "k", "-authkeyfile", emptyKey}, "mutually exclusive"},
		{"merge missing key file", Merge,
			[]string{"-listen", "127.0.0.1:0", "-authkeyfile", filepath.Join(dir, "absent")}, "-authkeyfile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			done := make(chan error, 1)
			go func() { done <- tc.run(tc.args, &out, &errb) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("got %v, want error containing %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("validation hung — it reached the network")
			}
		})
	}
}

// writeTLSCert mints a self-signed certificate for 127.0.0.1 that can
// serve as both the head's identity and the CA agents trust.
func writeTLSCert(t *testing.T, dir string) (certPath, keyPath string) {
	t.Helper()
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "tbdetect-test-head"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &priv.PublicKey, priv)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	certPath = filepath.Join(dir, "head.crt")
	keyPath = filepath.Join(dir, "head.key")
	var certPEM, keyPEM bytes.Buffer
	if err := pem.Encode(&certPEM, &pem.Block{Type: "CERTIFICATE", Bytes: der}); err != nil {
		t.Fatal(err)
	}
	if err := pem.Encode(&keyPEM, &pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(certPath, certPEM.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, keyPEM.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return certPath, keyPath
}

// TestAgentMergeTLSAuthEndToEnd runs the full secured CLI surface: the
// head listens over TLS with a shared handshake key, a wrong-key agent
// is rejected (and shows up in tbdetect_peers_rejected_total without
// contributing a node), and a right-key agent with a WAL ships its
// whole feed to a clean zero-drop finish.
func TestAgentMergeTLSAuthEndToEnd(t *testing.T) {
	dir := t.TempDir()
	certPath, keyPath := writeTLSCert(t, dir)
	keyFile := filepath.Join(dir, "shared.key")
	if err := os.WriteFile(keyFile, []byte("cli-e2e-shared-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	feeds := feedsByNode(t, 3000, map[string]string{"web": "n1", "app": "n1", "db": "n1"})
	feedPath := filepath.Join(dir, "n1.jsonl")
	if err := os.WriteFile(feedPath, feeds["n1"], 0o644); err != nil {
		t.Fatal(err)
	}

	authKey, err := loadAuthKey("", keyFile, "test")
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := serverTLS(certPath, keyPath, "", "test")
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	httpCh := make(chan string, 1)
	var mout, merr bytes.Buffer
	mergeDone := make(chan error, 1)
	go func() {
		mergeDone <- runMerge(&mout, &merr, mergeOpts{
			detectFlags: detectFlags{
				interval: 50 * time.Millisecond,
				window:   2 * time.Minute,
				flushLag: 300 * time.Millisecond,
				shards:   2,
			},
			listen:      "127.0.0.1:0",
			expect:      []string{"n1"},
			hbTimeout:   time.Minute,
			httpAddr:    "127.0.0.1:0",
			authKey:     authKey,
			tls:         tlsCfg,
			listenReady: func(a string) { addrCh <- a },
			httpReady:   func(a string) { httpCh <- a },
		})
	}()
	var addr, haddr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("merge head never came up")
	}
	select {
	case haddr = <-httpCh:
	case <-time.After(5 * time.Second):
		t.Fatal("http layer never came up")
	}

	// An impostor with the wrong key must fail terminally (no reconnect
	// loop) and never become a node.
	var iout, ierr bytes.Buffer
	impErr := Agent([]string{
		"-node", "impostor", "-head", addr, "-in", feedPath,
		"-tls-ca", certPath, "-authkey", "not-the-key",
		"-iotimeout", "2s",
	}, &iout, &ierr)
	if impErr == nil || !strings.Contains(impErr.Error(), "authentication") {
		t.Fatalf("wrong-key agent: got %v, want authentication failure", impErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := scrape(t, haddr)
		if strings.Contains(body, "tbdetect_peers_rejected_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers_rejected never reached 1:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The real agent: TLS via -tls-ca, key via -authkeyfile, WAL on.
	var aout, aerr bytes.Buffer
	if err := Agent([]string{
		"-node", "n1", "-head", addr, "-in", feedPath,
		"-batch", "128", "-heartbeat", "50ms",
		"-tls-ca", certPath, "-authkeyfile", keyFile,
		"-wal", filepath.Join(dir, "wal-n1"),
	}, &aout, &aerr); err != nil {
		t.Fatalf("agent n1: %v\nstderr:\n%s", err, aerr.String())
	}
	select {
	case err := <-mergeDone:
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merge head never finished after the agent said goodbye")
	}

	out := mout.String()
	if !strings.Contains(out, "final snapshot") {
		t.Errorf("no final snapshot printed:\n%s", out)
	}
	if !strings.Contains(out, "node n1") || !strings.Contains(out, "dropped=0") {
		t.Errorf("n1 must finish with zero drops:\n%s", out)
	}
	if strings.Contains(out, "impostor") {
		t.Errorf("rejected peer leaked into node accounting:\n%s", out)
	}
}

func scrape(t *testing.T, haddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + haddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	return string(b)
}

// TestAgentMergeEndToEnd drives the full CLI surface: a merge head and
// two agents (one per flag-built config) over real TCP, files in,
// merged alert stream and final snapshot out.
func TestAgentMergeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	feeds := feedsByNode(t, 4000, map[string]string{"web": "n1", "app": "n2", "db": "n2"})
	for node, feed := range feeds {
		if err := os.WriteFile(filepath.Join(dir, node+".jsonl"), feed, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	addrCh := make(chan string, 1)
	var mout, merr bytes.Buffer
	mergeDone := make(chan error, 1)
	go func() {
		mergeDone <- runMerge(&mout, &merr, mergeOpts{
			detectFlags: detectFlags{
				interval: 50 * time.Millisecond,
				window:   2 * time.Minute,
				flushLag: 300 * time.Millisecond,
				shards:   2,
			},
			listen:      "127.0.0.1:0",
			expect:      []string{"n1", "n2"},
			hbTimeout:   time.Minute,
			listenReady: func(a string) { addrCh <- a },
		})
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("merge head never came up")
	}

	var wg sync.WaitGroup
	agentErrs := make(map[string]error)
	var agentMu sync.Mutex
	for _, node := range []string{"n1", "n2"} {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			var aout, aerr bytes.Buffer
			err := Agent([]string{
				"-node", node,
				"-head", addr,
				"-in", filepath.Join(dir, node+".jsonl"),
				"-batch", "128",
				"-heartbeat", "50ms",
			}, &aout, &aerr)
			agentMu.Lock()
			agentErrs[node] = err
			agentMu.Unlock()
			if err == nil && !strings.Contains(aout.String(), "agent "+node+":") {
				t.Errorf("agent %s printed no summary: %q", node, aout.String())
			}
		}(node)
	}
	wg.Wait()
	for node, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %s: %v", node, err)
		}
	}
	select {
	case err := <-mergeDone:
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merge head never finished after both agents said goodbye")
	}

	out := mout.String()
	if !strings.Contains(out, "final snapshot") {
		t.Errorf("no final snapshot printed:\n%s", out)
	}
	if !strings.Contains(out, "most frequent transient bottleneck") {
		t.Errorf("no bottleneck ranked (workload should congest):\n%s", out)
	}
	for _, node := range []string{"n1", "n2"} {
		if !strings.Contains(out, "node "+node) || !strings.Contains(out, "eof") {
			t.Errorf("node accounting line for %s missing:\n%s", node, out)
		}
	}
	// Depart-sorted fault-free feeds must lose nothing: exactly-once,
	// zero drops, on both nodes.
	if got := strings.Count(out, "dropped=0"); got != 2 {
		t.Errorf("want dropped=0 on both node lines, got %d:\n%s", got, out)
	}
}

// TestMergeHTTPStreamsAlerts: a merge head started with -http must stream
// on /alerts every congestion alert it prints. The subscriber connects
// before the first agent does, so each ALERT line on stdout has to arrive
// as an "alert" event (or be owned up to in a "dropped" count), and the
// stream has to finish with "end".
func TestMergeHTTPStreamsAlerts(t *testing.T) {
	// Long enough (~25 s of trace) to pass the first N* estimate, which is
	// what turns closed intervals into congestion alerts.
	feeds := feedsByNode(t, 12000, map[string]string{"web": "n1", "app": "n2", "db": "n2"})

	addrCh := make(chan string, 1)
	httpCh := make(chan string, 1)
	var mout, merr bytes.Buffer
	mergeDone := make(chan error, 1)
	go func() {
		mergeDone <- runMerge(&mout, &merr, mergeOpts{
			detectFlags: detectFlags{
				interval: 50 * time.Millisecond,
				window:   2 * time.Minute,
				flushLag: 300 * time.Millisecond,
				shards:   2,
			},
			listen:      "127.0.0.1:0",
			expect:      []string{"n1", "n2"},
			hbTimeout:   time.Minute,
			httpAddr:    "127.0.0.1:0",
			listenReady: func(a string) { addrCh <- a },
			httpReady:   func(a string) { httpCh <- a },
		})
	}()
	var addr, haddr string
	for addr == "" || haddr == "" {
		select {
		case addr = <-addrCh:
		case haddr = <-httpCh:
		case err := <-mergeDone:
			t.Fatalf("merge head exited before listening: %v\nstderr: %s", err, merr.String())
		case <-time.After(5 * time.Second):
			t.Fatal("merge head never came up")
		}
	}
	events := sseSubscribe(t, "http://"+haddr)

	var wg sync.WaitGroup
	for node, feed := range feeds {
		wg.Add(1)
		go func(node string, feed []byte) {
			defer wg.Done()
			if _, err := agent.Run(context.Background(), bytes.NewReader(feed), agent.Config{
				Node: node, Addr: addr, BatchSize: 128,
				HeartbeatEvery: 50 * time.Millisecond, IOTimeout: 2 * time.Second,
			}); err != nil {
				t.Errorf("agent %s: %v", node, err)
			}
		}(node, feed)
	}
	wg.Wait()
	select {
	case err := <-mergeDone:
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merge head never finished after both agents said goodbye")
	}

	var streamed, dropped int64
	var sawEnd bool
	for ev := range events {
		switch ev.name {
		case "alert":
			streamed++
		case "dropped":
			var d serve.DroppedJSON
			if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
				t.Fatalf("dropped event payload %q: %v", ev.data, err)
			}
			dropped += d.Dropped
		case "end":
			sawEnd = true
		}
	}
	printed := int64(strings.Count(mout.String(), "ALERT"))
	if printed == 0 {
		t.Fatalf("workload should congest, but the head printed no ALERT:\n%s", mout.String())
	}
	if streamed+dropped != printed {
		t.Errorf("stdout printed %d alerts, /alerts delivered %d and reported %d dropped", printed, streamed, dropped)
	}
	if !sawEnd {
		t.Error("alert stream did not finish with an end event")
	}
	if !strings.Contains(merr.String(), "listening on http://"+haddr) {
		t.Errorf("stderr does not announce the http address %s:\n%s", haddr, merr.String())
	}
}

// TestMergeSIGTERMDrainMidReconnect is the graceful-shutdown drill: one
// agent finished its stream, the other is stuck mid-reconnect behind a
// partition when the head is told to stop. The head must drain — seal
// intervals, write the final checkpoint, print the final snapshot — and
// exit cleanly, not wedge waiting for the absent node.
func TestMergeSIGTERMDrainMidReconnect(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	feeds := feedsByNode(t, 3000, map[string]string{"web": "n1", "app": "n1", "db": "n2"})

	stop := make(chan struct{})
	addrCh := make(chan string, 1)
	var mout, merr bytes.Buffer
	mergeDone := make(chan error, 1)
	go func() {
		mergeDone <- runMerge(&mout, &merr, mergeOpts{
			detectFlags: detectFlags{
				interval:      50 * time.Millisecond,
				window:        2 * time.Minute,
				flushLag:      300 * time.Millisecond,
				shards:        2,
				checkpointDir: ckptDir,
				ckptEvery:     time.Second,
			},
			listen:      "127.0.0.1:0",
			expect:      []string{"n1", "n2"},
			hbTimeout:   5 * time.Minute, // degrade must not rescue this test
			stop:        stop,
			listenReady: func(a string) { addrCh <- a },
		})
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("merge head never came up")
	}

	// n1 ships its whole stream and finishes cleanly.
	if _, err := agent.Run(context.Background(), bytes.NewReader(feeds["n1"]), agent.Config{
		Node: "n1", Addr: addr, BatchSize: 128,
		HeartbeatEvery: 50 * time.Millisecond, IOTimeout: 2 * time.Second,
	}); err != nil {
		t.Fatalf("agent n1: %v", err)
	}

	// n2 dials through a partitioned proxy: connections open but no
	// bytes move, so its handshake times out and it loops in reconnect
	// backoff — the exact state the drain must tolerate.
	proxy, err := chaos.NewProxy("127.0.0.1:0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.Partition()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n2done := make(chan struct{})
	go func() {
		defer close(n2done)
		agent.Run(ctx, bytes.NewReader(feeds["n2"]), agent.Config{ //nolint:errcheck // cancelled at test end
			Node: "n2", Addr: proxy.Addr(), BatchSize: 128,
			HeartbeatEvery: 50 * time.Millisecond, IOTimeout: 150 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		})
	}()
	time.Sleep(400 * time.Millisecond) // let n2 enter its reconnect loop

	close(stop)
	select {
	case err := <-mergeDone:
		if err != nil {
			t.Fatalf("drained merge head returned %v, want nil (exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merge head wedged on drain with an agent mid-reconnect")
	}
	cancel()
	<-n2done

	if !strings.Contains(merr.String(), "interrupted") {
		t.Errorf("no interrupt notice on stderr:\n%s", merr.String())
	}
	out := mout.String()
	if !strings.Contains(out, "final snapshot") {
		t.Errorf("no final snapshot after drain:\n%s", out)
	}
	if !strings.Contains(out, "node n1") || !strings.Contains(out, "eof") {
		t.Errorf("n1 accounting missing:\n%s", out)
	}
	ckpts, err := filepath.Glob(filepath.Join(ckptDir, "checkpoint-*.tbc"))
	if err != nil || len(ckpts) == 0 {
		t.Errorf("no final checkpoint written on drain (glob err %v): %v", err, ckpts)
	}
	// n1's records must be in the sealed analysis even though n2 never
	// delivered: drain releases everything buffered.
	if !strings.Contains(out, "delivered="+fmt.Sprint(countRecords(t, feeds["n1"]))) {
		t.Errorf("n1 delivered count missing from accounting:\n%s", out)
	}
}

func countRecords(t *testing.T, feed []byte) int {
	t.Helper()
	n := 0
	_, err := traceio.StreamVisitsOpts(bytes.NewReader(feed), traceio.StreamOptions{}, func(batch []trace.Visit) error {
		n += len(batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
