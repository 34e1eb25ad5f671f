package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"
)

// outLine is one line a child printed, stamped when the harness read it.
type outLine struct {
	at   time.Time
	text string
}

// child is one process of the system under test. Its stdout and stderr
// are read line by line as they arrive (alert latency is the arrival
// time of an ALERT line) and copied to benchmark/out/.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser // nil unless started with a stdin pipe

	readers sync.WaitGroup
	mu      sync.Mutex
	stdout  []outLine
	stderr  []outLine

	// peakRSSKiB is the highest VmHWM seen in /proc/<pid>/status. The
	// rusage of wait4 cannot be used for this: a child started by vfork
	// and exec inherits the parent's high-water mark, and the harness,
	// which holds the whole trace, is larger than most of its children.
	peakRSSKiB atomic.Int64
	stopPoll   chan struct{}
	pollDone   chan struct{}

	waitOnce sync.Once
	waitErr  error
}

// rssPollEvery is how often a running child's high-water mark is read.
// The mark only rises, so the last reading before exit misses at most
// what the child grew in its final few milliseconds.
const rssPollEvery = 10 * time.Millisecond

// startChild launches bin with args under ctx; the context's deadline is
// the child's deadline, and a child still alive then is killed. logBase
// is the path prefix of its captured output files; onStderr, when set,
// sees every stderr line as it arrives (a listen address is announced
// there).
func startChild(ctx context.Context, name, bin string, args []string, pipeStdin bool, logBase string, onStderr func(string)) (*child, error) {
	c := &child{name: name, stopPoll: make(chan struct{}), pollDone: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.WaitDelay = 2 * time.Second
	if pipeStdin {
		in, err := c.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		c.stdin = in
	}
	outPipe, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errPipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logBase), 0o755); err != nil {
		return nil, err
	}
	outFile, err := os.Create(logBase + ".stdout")
	if err != nil {
		return nil, err
	}
	errFile, err := os.Create(logBase + ".stderr")
	if err != nil {
		outFile.Close()
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		outFile.Close()
		errFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c.readers.Add(2)
	go c.readLines(outPipe, outFile, &c.stdout, nil)
	go c.readLines(errPipe, errFile, &c.stderr, onStderr)
	go c.pollRSS()
	return c, nil
}

// startAnnounced starts a child that announces on stderr the address it
// listens on, as the first group of announce, and waits for that line.
func startAnnounced(ctx context.Context, name, bin string, args []string, pipeStdin bool, logBase string, announce *regexp.Regexp) (*child, string, error) {
	addrCh := make(chan string, 1)
	c, err := startChild(ctx, name, bin, args, pipeStdin, logBase, func(line string) {
		if m := announce.FindStringSubmatch(line); m != nil {
			select {
			case addrCh <- m[1]:
			default:
			}
		}
	})
	if err != nil {
		return nil, "", err
	}
	select {
	case addr := <-addrCh:
		return c, addr, nil
	case <-time.After(listenWait):
		c.kill()
		return nil, "", fmt.Errorf("%s announced no address within %v", name, listenWait)
	}
}

func (c *child) pollRSS() {
	defer close(c.pollDone)
	status := fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid)
	tick := time.NewTicker(rssPollEvery)
	defer tick.Stop()
	for {
		if b, err := os.ReadFile(status); err == nil {
			if i := bytes.Index(b, []byte("VmHWM:")); i >= 0 {
				var kib int64
				fmt.Sscanf(string(b[i+len("VmHWM:"):]), "%d", &kib) //nolint:errcheck // a torn read keeps the last value
				if kib > c.peakRSSKiB.Load() {
					c.peakRSSKiB.Store(kib)
				}
			}
		}
		select {
		case <-c.stopPoll:
			return
		case <-tick.C:
		}
	}
}

func (c *child) readLines(r io.Reader, log *os.File, into *[]outLine, each func(string)) {
	defer c.readers.Done()
	defer log.Close()
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			now := time.Now()
			log.WriteString(line) //nolint:errcheck // diagnostic copy only
			text := line
			if text[len(text)-1] == '\n' {
				text = text[:len(text)-1]
			}
			c.mu.Lock()
			*into = append(*into, outLine{at: now, text: text})
			c.mu.Unlock()
			if each != nil {
				each(text)
			}
		}
		if err != nil {
			return
		}
	}
}

// wait blocks until the child has exited and its output is fully read.
// Safe to call more than once.
func (c *child) wait() error {
	c.waitOnce.Do(func() {
		c.readers.Wait() // both pipes at EOF: the child has exited
		close(c.stopPoll)
		<-c.pollDone
		c.waitErr = c.cmd.Wait()
	})
	return c.waitErr
}

// kill stops a child that should not be running any more and reaps it.
func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	}
	c.wait() //nolint:errcheck // reaping only
}

// usage is the child's resource use once it has been waited for: user
// plus system CPU time from its rusage, and peak resident set in KiB.
func (c *child) usage() (cpu time.Duration, peakRSSKiB int64) {
	if ps := c.cmd.ProcessState; ps != nil {
		cpu = ps.UserTime() + ps.SystemTime()
	}
	return cpu, c.peakRSSKiB.Load()
}

func (c *child) stdoutLines() []outLine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]outLine(nil), c.stdout...)
}

func (c *child) stderrLines() []outLine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]outLine(nil), c.stderr...)
}
