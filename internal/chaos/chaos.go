// Package chaos is the fault-injection harness for the stream runtime.
// It turns stream.Config.Hooks into precise, countable faults — shard
// panics at chosen records or barriers, checkpoint-file corruption —
// so the recovery machinery (quarantine, rebuild-from-checkpoint,
// retained replay, crash-loop degradation, resume fallback) is exercised
// by tests the same way a real defect or crash would exercise it.
//
// The package is test infrastructure, but it lives as a real package
// (not _test files) so the CLI soak in CI and future stress tools can
// reuse it.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// Panic is the value thrown by injected panics, so recovery paths (and
// debuggers) can tell an injected fault from a real defect.
type Panic struct {
	Shard int
	Count int64 // the shard-local observe count the fault fired at
}

func (p Panic) Error() string {
	return fmt.Sprintf("chaos: injected panic on shard %d at observe %d", p.Shard, p.Count)
}

// Rule is one fault: it panics the shard goroutine on a shard's Nth
// observed record (shard -1 matches any shard).
type Rule struct {
	// Shard targets one shard, or any shard when -1.
	Shard int
	// From fires the rule on the shard's From-th observed record
	// (1-based, counted per shard).
	From int64
	// To keeps the rule firing through the To-th record; 0 means fire at
	// From only. Use a large To for a poison pill that panics on every
	// record (including the supervisor's single retry).
	To int64
}

// advanceRule fires a panic at one shard's At-th watermark barrier.
type advanceRule struct {
	shard int
	at    int64
}

// Injector builds stream.Hooks that apply a set of Rules. Safe for
// concurrent use by all shard goroutines.
type Injector struct {
	mu      sync.Mutex
	rules   []Rule
	advs    []advanceRule
	seen    map[int]int64 // per-shard observe counter
	seenAdv map[int]int64 // per-shard barrier counter
	panics  int64
}

// NewInjector returns an Injector applying rules.
func NewInjector(rules ...Rule) *Injector {
	return &Injector{rules: rules, seen: make(map[int]int64), seenAdv: make(map[int]int64)}
}

// OnAdvance adds a fault that panics at shard's at-th watermark barrier
// (1-based) — a failure between batches, while alerts are being sealed.
func (in *Injector) OnAdvance(shard int, at int64) {
	in.mu.Lock()
	in.advs = append(in.advs, advanceRule{shard: shard, at: at})
	in.mu.Unlock()
}

// Panics reports how many panics have been injected so far.
func (in *Injector) Panics() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.panics
}

// Hooks returns the stream hooks implementing the injector's rules.
// Attach via stream.Config.Hooks.
func (in *Injector) Hooks() stream.Hooks {
	return stream.Hooks{Observe: in.observe, Advance: in.advance}
}

func (in *Injector) advance(shard int, mark simnet.Time) {
	in.mu.Lock()
	in.seenAdv[shard]++
	n := in.seenAdv[shard]
	var panicWith *Panic
	for _, rule := range in.advs {
		if (rule.shard == -1 || rule.shard == shard) && rule.at == n {
			in.panics++
			panicWith = &Panic{Shard: shard, Count: n}
			break
		}
	}
	in.mu.Unlock()
	if panicWith != nil {
		panic(*panicWith)
	}
}

func (in *Injector) observe(shard int, v *trace.Visit) {
	in.mu.Lock()
	in.seen[shard]++
	n := in.seen[shard]
	var panicWith *Panic
	for _, rule := range in.rules {
		if rule.Shard != -1 && rule.Shard != shard {
			continue
		}
		to := rule.To
		if to == 0 {
			to = rule.From
		}
		if n < rule.From || n > to {
			continue
		}
		in.panics++
		panicWith = &Panic{Shard: shard, Count: n}
		break
	}
	in.mu.Unlock()
	if panicWith != nil {
		panic(*panicWith)
	}
}

// Checkpoints lists dir's checkpoint files newest-first (by sequence).
func Checkpoints(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tbc") {
			names = append(names, filepath.Join(dir, name))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// TruncateLatest cuts the newest checkpoint file in dir to half its
// length — the on-disk shape of a crash mid-write that somehow survived
// the atomic rename discipline, or a torn disk. Returns the mangled path.
func TruncateLatest(dir string) (string, error) {
	names := Checkpoints(dir)
	if len(names) == 0 {
		return "", fmt.Errorf("chaos: no checkpoint files in %s", dir)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		return "", err
	}
	return names[0], os.WriteFile(names[0], data[:len(data)/2], 0o644)
}

// CorruptAll damages every checkpoint file in dir (byte flips), forcing
// a resume to fall all the way back to a cold start.
func CorruptAll(dir string) error {
	names := Checkpoints(dir)
	if len(names) == 0 {
		return fmt.Errorf("chaos: no checkpoint files in %s", dir)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Workload is a deterministic multi-server visit feed for chaos tests:
// every test needs "the same records, with or without faults", so the
// generator is seed-stable and pure.
func Workload(servers []string, n int, seed int64) []trace.Visit {
	classes := []struct {
		name string
		svc  simnet.Duration
	}{
		{"small", 2 * simnet.Millisecond},
		{"mid", 4 * simnet.Millisecond},
		{"big", 8 * simnet.Millisecond},
	}
	// Tiny deterministic PRNG (xorshift) — the point is stability across
	// runs, not statistical quality.
	x := uint64(seed)*2654435761 + 1
	next := func(bound int64) int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(bound))
	}
	visits := make([]trace.Visit, 0, n)
	clock := simnet.Time(0)
	for i := 0; i < n; i++ {
		c := classes[next(int64(len(classes)))]
		srv := servers[next(int64(len(servers)))]
		arrive := clock + simnet.Duration(next(3_000))
		resid := c.svc + simnet.Duration(next(40_000))
		if next(12) == 0 {
			resid += 150 * simnet.Millisecond // transient burst
		}
		visits = append(visits, trace.Visit{
			Server: srv, Class: c.name,
			Arrive: arrive, Depart: arrive + resid,
		})
		clock += simnet.Duration(next(4_000))
	}
	return visits
}
