package cli

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/merge"
	"transientbd/internal/serve"
	"transientbd/internal/stream"
)

// This file is the command surface of distributed ingestion: `tbdetect
// agent` tails a JSONL visit source on one host and ships it to the
// merge head; `tbdetect merge` accepts N agents, runs the node barrier
// across them, and prints the alert stream and final snapshot in the
// follow mode's format. What is pinned is agent-count invariance: N
// agents through the head produce, field for field, what one agent
// through the head produces, at any fault schedule without loss
// (TestMergeEquivalence and the durability arms, under a calibrated
// service table). A single `tbdetect -follow` over the same records is
// a different delivery schedule and may classify a few live intervals
// near N* differently.

// agentOpts carries the `tbdetect agent` flags, with the signal hook
// injectable for tests.
type agentOpts struct {
	cfg agent.Config
	// stop, when non-nil, replaces the SIGINT/SIGTERM handler — closing
	// it cancels the run (a clean exit, not an error).
	stop <-chan struct{}
}

// Agent ships one host's visit stream to a merge head, surviving
// disconnects, head restarts and its own restarts (sequence numbers are
// positional in the source, so the head deduplicates replays).
func Agent(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tbdetect agent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		node       = fs.String("node", "", "stable node identity — the merge head's dedup and resume key; must survive restarts (required)")
		head       = fs.String("head", "", "merge head TCP address to ship to, host:port (required)")
		in         = fs.String("in", "-", "visit JSONL input path (- for stdin)")
		batch      = fs.Int("batch", 512, "records per batch; part of the resume contract — keep it stable across restarts of the same node")
		sendwindow = fs.Int("sendwindow", 64, "unacknowledged batches held in memory before the source read stalls (backpressure)")
		heartbeat  = fs.Duration("heartbeat", time.Second, "liveness heartbeat cadence; the head degrades a node silent past its timeout")
		iotimeout  = fs.Duration("iotimeout", 10*time.Second, "handshake and write deadline; the idle read timeout is max(this, 3x heartbeat)")
		backoff    = fs.Duration("backoff", 100*time.Millisecond, "initial reconnect backoff (exponential, ±50% jitter)")
		backoffmax = fs.Duration("backoffmax", 5*time.Second, "reconnect backoff cap")
		maxdials   = fs.Int("maxdials", 0, "consecutive failed connection attempts (dials, or sessions that get nothing new acknowledged) before giving up (0 = retry until signalled)")
		lenient    = fs.Bool("lenient", false, "skip undecodable source lines (counted) instead of failing the run")
		wal        = fs.String("wal", "", "write-ahead-log directory: batches are durable on disk before they are sent, a head outage spills there instead of stalling the source, and a restart replays the log (keep it stable per node; empty = memory-only)")
		authkey    = fs.String("authkey", "", "shared key for the mutual HMAC handshake with the head (prefer -authkeyfile: argv is visible in ps)")
		akeyfile   = fs.String("authkeyfile", "", "file holding the shared handshake key (surrounding whitespace trimmed); mutually exclusive with -authkey")
		tlsCA      = fs.String("tls-ca", "", "PEM bundle of CAs that must have signed the head's certificate; setting any -tls-* flag dials over TLS")
		tlsCert    = fs.String("tls-cert", "", "PEM client certificate to present to the head (requires -tls-key)")
		tlsKey     = fs.String("tls-key", "", "PEM private key for -tls-cert")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return errors.New("tbdetect agent: -node is required (a stable identity, e.g. the hostname)")
	}
	if *head == "" {
		return errors.New("tbdetect agent: -head is required (the merge head's address)")
	}
	key, err := loadAuthKey(*authkey, *akeyfile, "tbdetect agent")
	if err != nil {
		return err
	}
	tlsCfg, err := clientTLS(*tlsCA, *tlsCert, *tlsKey, "tbdetect agent")
	if err != nil {
		return err
	}
	// Fail fast on an unusable WAL directory — before dialing, before
	// reading a byte of the source — so a misconfigured unit file dies
	// loudly at start instead of after the first head outage.
	if *wal != "" {
		if perr := probeWALDir(*wal); perr != nil {
			return fmt.Errorf("tbdetect agent: -wal %s is not a writable directory: %w", *wal, perr)
		}
	}
	var dial func(addr string) (net.Conn, error)
	if tlsCfg != nil {
		dialTimeout := *iotimeout
		dial = func(addr string) (net.Conn, error) {
			return tls.DialWithDialer(&net.Dialer{Timeout: dialTimeout}, "tcp", addr, tlsCfg)
		}
	}
	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("tbdetect agent: %w", err)
		}
		defer f.Close()
		r = f
	}
	return runAgent(r, stdout, stderr, agentOpts{cfg: agent.Config{
		Node:           *node,
		Addr:           *head,
		BatchSize:      *batch,
		Window:         *sendwindow,
		HeartbeatEvery: *heartbeat,
		IOTimeout:      *iotimeout,
		BackoffBase:    *backoff,
		BackoffMax:     *backoffmax,
		MaxDials:       *maxdials,
		Lenient:        *lenient,
		WALDir:         *wal,
		AuthKey:        key,
		Dial:           dial,
	}})
}

// runAgent drives one agent run under signal control.
func runAgent(r io.Reader, stdout, stderr io.Writer, opts agentOpts) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop, unhook := stopSignal(opts.stop)
	defer unhook()
	interrupted := make(chan struct{})
	go func() {
		select {
		case <-stop:
			close(interrupted)
			cancel()
		case <-ctx.Done():
		}
	}()

	cfg := opts.cfg
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(stderr, "tbdetect: "+format+"\n", args...)
	}
	m, err := agent.Run(ctx, r, cfg)
	fmt.Fprintf(stdout, "agent %s: %d records read, %d sent in %d batches (%d retransmits), %d acked, %d reconnects, %d resume-skipped\n",
		cfg.Node, m.RecordsRead, m.RecordsSent, m.BatchesSent, m.Retransmits, m.BatchesAcked, m.Reconnects, m.ResumeSkipped)
	select {
	case <-interrupted:
		// A signalled agent exits clean: everything acknowledged is
		// durable at the head, everything else will be retransmitted by
		// the next incarnation (same -node, same -batch).
		fmt.Fprintln(stderr, "tbdetect: interrupted; acknowledged batches are durable at the merge head")
		return nil
	default:
	}
	if err != nil {
		return fmt.Errorf("tbdetect agent: %w", err)
	}
	return nil
}

// mergeOpts carries the `tbdetect merge` flags, with the signal and
// address hooks injectable for tests.
type mergeOpts struct {
	detectFlags
	listen       string
	expect       []string
	hbTimeout    time.Duration
	httpAddr     string
	publishEvery time.Duration
	authKey      []byte
	tls          *tls.Config

	// stop, when non-nil, replaces the SIGINT/SIGTERM handler — closing
	// it drains the head (graceful SIGTERM path).
	stop <-chan struct{}
	// listenReady/httpReady receive the bound addresses (tests hook
	// them; port 0 in the flags picks free ports).
	listenReady func(addr string)
	httpReady   func(addr string)
}

// Merge runs the multi-node ingestion head: it accepts agent
// connections, merges their per-node streams through the node barrier,
// and prints the alert stream and final snapshot in the follow mode's
// format.
func Merge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tbdetect merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:7600", "TCP address agents connect to (port 0 picks a free one)")
		expect    = fs.String("expect", "", "comma-separated node identities the barrier waits for before sealing any interval (late joiners beyond the list may still connect)")
		hbtimeout = fs.Duration("hbtimeout", 10*time.Second, "node silence after which it is degraded: it stops holding back the barrier, and records it later delivers from behind the release point are dropped with accounting")
		httpAddr  = fs.String("http", "", "serve /metrics (with per-node families), /healthz, /readyz, /report, /servers/{id}/series and SSE /alerts on this address")
		authkey   = fs.String("authkey", "", "shared key agents must prove in the mutual HMAC handshake; unauthenticated and wrong-key peers are rejected and counted (prefer -authkeyfile)")
		akeyfile  = fs.String("authkeyfile", "", "file holding the shared handshake key (surrounding whitespace trimmed); mutually exclusive with -authkey")
		tlsCert   = fs.String("tls-cert", "", "PEM server certificate; with -tls-key, agents must connect over TLS")
		tlsKey    = fs.String("tls-key", "", "PEM private key for -tls-cert")
		tlsCA     = fs.String("tls-ca", "", "PEM bundle of CAs; when set, agents must present a client certificate signed by one of them (mutual TLS)")
		detect    detectFlags
	)
	detect.register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	key, err := loadAuthKey(*authkey, *akeyfile, "tbdetect merge")
	if err != nil {
		return err
	}
	tlsCfg, err := serverTLS(*tlsCert, *tlsKey, *tlsCA, "tbdetect merge")
	if err != nil {
		return err
	}
	var nodes []string
	if *expect != "" {
		for _, n := range strings.Split(*expect, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
	}
	return runMerge(stdout, stderr, mergeOpts{
		detectFlags: detect,
		listen:      *listen,
		expect:      nodes,
		hbTimeout:   *hbtimeout,
		httpAddr:    *httpAddr,
		authKey:     key,
		tls:         tlsCfg,
	})
}

// loadAuthKey resolves the -authkey/-authkeyfile pair: inline wins only
// when the file flag is absent (they are mutually exclusive), file
// contents are whitespace-trimmed, and an empty result is an error —
// an operator who reached for the flags meant to authenticate.
func loadAuthKey(inline, file, tool string) ([]byte, error) {
	switch {
	case inline != "" && file != "":
		return nil, fmt.Errorf("%s: -authkey and -authkeyfile are mutually exclusive", tool)
	case inline != "":
		return []byte(inline), nil
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("%s: -authkeyfile: %w", tool, err)
		}
		k := bytes.TrimSpace(b)
		if len(k) == 0 {
			return nil, fmt.Errorf("%s: -authkeyfile %s holds no key", tool, file)
		}
		return k, nil
	}
	return nil, nil
}

// clientTLS builds the agent-side TLS config; setting any of the flags
// enables TLS. A client certificate needs both halves.
func clientTLS(ca, cert, key, tool string) (*tls.Config, error) {
	if ca == "" && cert == "" && key == "" {
		return nil, nil
	}
	if (cert == "") != (key == "") {
		return nil, fmt.Errorf("%s: -tls-cert and -tls-key must be set together", tool)
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if ca != "" {
		pool, err := caPool(ca, tool)
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	if cert != "" {
		c, err := tls.LoadX509KeyPair(cert, key)
		if err != nil {
			return nil, fmt.Errorf("%s: -tls-cert/-tls-key: %w", tool, err)
		}
		cfg.Certificates = []tls.Certificate{c}
	}
	return cfg, nil
}

// serverTLS builds the head-side TLS config. The certificate pair is
// the gate: -tls-cert without -tls-key (or -tls-ca alone) fails fast
// at flag time, not at the first handshake. -tls-ca upgrades to mutual
// TLS: agents must present a certificate one of those CAs signed.
func serverTLS(cert, key, ca, tool string) (*tls.Config, error) {
	if cert == "" && key == "" && ca == "" {
		return nil, nil
	}
	if cert == "" || key == "" {
		return nil, fmt.Errorf("%s: TLS needs both -tls-cert and -tls-key", tool)
	}
	c, err := tls.LoadX509KeyPair(cert, key)
	if err != nil {
		return nil, fmt.Errorf("%s: -tls-cert/-tls-key: %w", tool, err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{c}, MinVersion: tls.VersionTLS12}
	if ca != "" {
		pool, perr := caPool(ca, tool)
		if perr != nil {
			return nil, perr
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

func caPool(path, tool string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: -tls-ca: %w", tool, err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("%s: -tls-ca %s holds no usable certificates", tool, path)
	}
	return pool, nil
}

// probeWALDir creates the WAL directory if needed and proves it is
// writable by round-tripping a temp file.
func probeWALDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}

// lockedWriter serializes writes from several goroutines to one writer.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// runMerge drives the merge head to completion: every expected node
// reaching EOF ends it naturally; SIGINT/SIGTERM drains it early —
// buffered stragglers are released, intervals sealed, the final
// checkpoint written (when configured) and the exit is clean (status
// 0), even while agents are mid-reconnect.
func runMerge(stdout, stderr io.Writer, opts mergeOpts) error {
	// Session goroutines log to the same stderr as this one.
	stderr = &lockedWriter{w: stderr}
	cfg, err := opts.streamConfig()
	if err != nil {
		return err
	}
	// Sealing is the node barrier's job: the lag moves from the runtime
	// to the head.
	lag := cfg.FlushLag
	cfg.FlushLag = 0
	srv, err := merge.NewServer(merge.ServerConfig{
		Core: merge.Config{
			Stream:           cfg,
			FlushLag:         lag,
			ExpectNodes:      opts.expect,
			HeartbeatTimeout: opts.hbTimeout,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "tbdetect: "+format+"\n", args...)
		},
		AuthKey: opts.authKey,
		TLS:     opts.tls,
	})
	if err != nil {
		return fmt.Errorf("tbdetect merge: %w", err)
	}
	addr, err := srv.Start(opts.listen)
	if err != nil {
		return fmt.Errorf("tbdetect merge: listen: %w", err)
	}
	fmt.Fprintf(stderr, "tbdetect: merge head listening on %s (waiting for %d expected nodes)\n", addr, len(opts.expect))
	if opts.listenReady != nil {
		opts.listenReady(addr)
	}

	// Optional HTTP layer: metrics gain the per-node families, /report
	// serves barrier-consistent snapshots computed on the head's event
	// goroutine at publishEvery cadence, /alerts streams what the printer
	// below publishes.
	hsrv, shutdown, err := startServe(serve.Config{
		Metrics:       srv.Metrics,
		Health:        srv.ShardHealth,
		Nodes:         srv.NodeStatuses,
		PeersRejected: srv.AuthRejects,
	}, opts.httpAddr, stderr, opts.httpReady)
	if err != nil {
		// A head that failed to start prints nothing, but Close seals, and
		// sealing blocks on an undrained alert channel.
		go func() {
			for range srv.Alerts() {
			}
		}()
		srv.Close()
		return fmt.Errorf("tbdetect merge: http listen: %w", err)
	}
	defer shutdown()

	// The alert printer starts as soon as it has somewhere to publish:
	// agents may already be connecting, and the runtime blocks sealing an
	// interval on an undrained alert channel.
	var alerts, freezes int64
	printerDone := make(chan struct{})
	go func() {
		defer close(printerDone)
		alerts, freezes = printAlerts(stdout, hsrv, srv.Alerts())
	}()

	publishEvery := opts.publishEvery
	if publishEvery <= 0 {
		publishEvery = time.Second
	}
	pubQuit := make(chan struct{})
	defer close(pubQuit)
	if hsrv != nil {
		hsrv.SetReady(true)
		go func() {
			t := time.NewTicker(publishEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if snap, serr := srv.Snapshot(); serr == nil {
						hsrv.PublishSnapshot(snap)
					}
				case <-pubQuit:
					return
				case <-srv.Done():
					return
				}
			}
		}()
	}

	stop, unhook := stopSignal(opts.stop)
	defer unhook()

	var snap *stream.Snapshot
	select {
	case <-srv.Done():
		// Every known node said Goodbye: the stream is complete.
		snap = srv.Final()
	case <-stop:
		fmt.Fprintln(stderr, "tbdetect: interrupted; draining merge head, sealing intervals and writing final state")
		snap = srv.Drain()
	}
	if hsrv != nil {
		hsrv.SetReady(false)
	}
	statuses := srv.NodeStatuses()
	srv.Close()
	<-printerDone
	if hsrv != nil {
		hsrv.PublishSnapshot(snap)
	}

	fmt.Fprintf(stdout, "\nmerge: %d congestion alerts (%d freezes) from %d closed intervals across %d nodes\n",
		alerts, freezes, snap.Metrics.IntervalsClosed, len(statuses))
	for _, st := range statuses {
		state := "disconnected"
		switch {
		case st.EOF:
			state = "eof"
		case st.Degraded:
			state = "degraded"
		case st.Connected:
			state = "connected"
		}
		fmt.Fprintf(stdout, "node %-12s  %-12s  delivered=%-8d deduped=%-6d dropped=%-6d invalid=%-4d reconnects=%d\n",
			st.Node, state, st.Delivered, st.Deduped, st.Dropped, st.Invalid, max(st.Sessions-1, 0))
	}
	printFinalSnapshot(stdout, snap, opts.window, opts.top)
	if opts.metrics {
		fmt.Fprint(stderr, snap.Metrics.String())
	}
	return nil
}
