package chaos

import (
	"hash/fnv"
	"reflect"
	"testing"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// chaosServers spread across every shard count used in these tests.
var chaosServers = []string{
	"web-1", "web-2", "app-1", "app-2", "db-1", "db-2", "cache-1", "cache-2",
}

func baseCfg(shards int) stream.Config {
	return stream.Config{
		Online:   core.OnlineOptions{WindowIntervals: 100, ReestimateEvery: 25},
		Shards:   shards,
		FlushLag: simnet.Second,
	}
}

// shardOf mirrors the runtime's FNV-1a partitioning so tests can pick a
// server that lands on a wanted shard.
func shardOf(server string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(server))
	return int(h.Sum32() % uint32(shards))
}

// drain collects a runtime's full alert stream in the background.
func drain(rt *stream.Runtime) <-chan []stream.Alert {
	out := make(chan []stream.Alert, 1)
	go func() {
		var all []stream.Alert
		for a := range rt.Alerts() {
			all = append(all, a)
		}
		out <- all
	}()
	return out
}

// run feeds visits through a fresh runtime and returns the alert stream,
// final snapshot and final metrics.
func run(t *testing.T, cfg stream.Config, visits []trace.Visit) ([]stream.Alert, *stream.Snapshot, stream.Metrics) {
	t.Helper()
	rt, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alerts := drain(rt)
	for _, v := range visits {
		if err := rt.Observe(v); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	snap := rt.Close()
	return <-alerts, snap, rt.Metrics()
}

// TestShardPanicExactRecovery is the headline chaos property: a transient
// panic inside a shard (mid-batch, after checkpoints have been cut) must
// not kill the process, must restart the shard from its last checkpoint
// cut with the retained batches replayed, must be visible in
// self-metrics — and the run's full output must be identical to a
// fault-free run, record for record.
func TestShardPanicExactRecovery(t *testing.T) {
	visits := Workload(chaosServers, 6000, 11)

	goldenAlerts, goldenSnap, goldenM := run(t, baseCfg(4), visits)

	inj := NewInjector(Rule{Shard: 1, From: 700})
	cfg := baseCfg(4)
	cfg.CheckpointEvery = 2 * simnet.Second // in-memory cuts: bound the replay window
	cfg.Hooks = inj.Hooks()
	faultAlerts, faultSnap, faultM := run(t, cfg, visits)

	if inj.Panics() != 1 {
		t.Fatalf("injected %d panics, want exactly 1", inj.Panics())
	}
	if faultM.ShardRestarts != 1 {
		t.Fatalf("ShardRestarts = %d, want 1 (the restart must be visible in self-metrics)", faultM.ShardRestarts)
	}
	if faultM.DegradedShards != 0 || faultM.RecordsLost != 0 || faultM.AlertsLost != 0 {
		t.Fatalf("transient fault leaked loss: degraded %d, records lost %d, alerts lost %d",
			faultM.DegradedShards, faultM.RecordsLost, faultM.AlertsLost)
	}
	if !reflect.DeepEqual(faultAlerts, goldenAlerts) {
		t.Fatalf("alert stream diverged after recovery: %d alerts vs %d golden",
			len(faultAlerts), len(goldenAlerts))
	}
	if !reflect.DeepEqual(faultSnap.Ranking, goldenSnap.Ranking) {
		t.Fatal("final snapshot ranking diverged after recovery")
	}
	for _, cmp := range []struct {
		name         string
		fault, clean int64
	}{
		{"IntervalsClosed", faultM.IntervalsClosed, goldenM.IntervalsClosed},
		{"Congested", faultM.Congested, goldenM.Congested},
		{"Freezes", faultM.Freezes, goldenM.Freezes},
		{"Reestimates", faultM.Reestimates, goldenM.Reestimates},
	} {
		if cmp.fault != cmp.clean {
			t.Errorf("%s = %d, golden %d", cmp.name, cmp.fault, cmp.clean)
		}
	}

	// A hook that rewrites records ahead of the panic: crash replay does
	// not re-run hooks, so the rebuilt analyzer matches a fault-free run
	// of the same rewrite only if retention kept the rewritten records.
	rewrite := func(_ int, v *trace.Visit) {
		if v.Class == "small" && v.Arrive%2 == 0 {
			v.Class = "big"
		}
	}
	cfgR := baseCfg(4)
	cfgR.Hooks.Observe = rewrite
	rewrittenAlerts, _, _ := run(t, cfgR, visits)
	if reflect.DeepEqual(rewrittenAlerts, goldenAlerts) {
		t.Fatal("the rewrite does not show in the alert stream; the check below would be vacuous")
	}
	panicAt := NewInjector(Rule{Shard: 1, From: 700}).Hooks().Observe
	cfg.Hooks.Observe = func(shard int, v *trace.Visit) {
		rewrite(shard, v)
		panicAt(shard, v)
	}
	if replayed, _, m := run(t, cfg, visits); m.ShardRestarts != 1 || !reflect.DeepEqual(replayed, rewrittenAlerts) {
		t.Fatalf("rebuilt analyzer did not see the rewritten records (restarts %d, %d alerts vs %d)",
			m.ShardRestarts, len(replayed), len(rewrittenAlerts))
	}
}

// TestPoisonPillDegrades: a shard that panics on every record must burn
// through the crash-loop budget and degrade to drop-with-accounting —
// the merger stays alive, the other shards' alerts still flow, and
// every dropped record is counted.
func TestPoisonPillDegrades(t *testing.T) {
	visits := Workload(chaosServers, 6000, 13)
	sick := shardOf(chaosServers[0], 4) // any shard with traffic

	inj := NewInjector(Rule{Shard: sick, From: 1, To: 1 << 40})
	cfg := baseCfg(4)
	cfg.Hooks = inj.Hooks()
	alerts, snap, m := run(t, cfg, visits)

	if m.DegradedShards != 1 {
		t.Fatalf("DegradedShards = %d, want 1", m.DegradedShards)
	}
	const budget = 8 // the runtime's per-shard crash-loop budget
	if m.ShardRestarts <= budget {
		t.Fatalf("ShardRestarts = %d, want > budget %d", m.ShardRestarts, budget)
	}
	if m.RecordsLost == 0 {
		t.Fatal("a degraded shard must account its dropped records in RecordsLost")
	}
	healthy := 0
	for _, a := range alerts {
		if shardOf(a.Server, 4) != sick {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("no alerts from healthy shards: the merger did not survive the poison shard")
	}
	if snap == nil || len(snap.Ranking) == 0 {
		t.Fatal("final snapshot empty: runtime did not shut down cleanly")
	}
	for _, ss := range snap.Ranking {
		if shardOf(ss.Server, 4) == sick {
			t.Fatalf("degraded shard leaked server %q into the snapshot", ss.Server)
		}
	}
}

// TestBarrierPanicRecovery: a panic at a watermark barrier (between
// batches) recovers exactly too — the barrier is retried, its alerts are
// emitted exactly once and the epoch protocol stays in sync.
func TestBarrierPanicRecovery(t *testing.T) {
	visits := Workload(chaosServers, 6000, 17)
	goldenAlerts, goldenSnap, _ := run(t, baseCfg(4), visits)

	inj := NewInjector()
	inj.OnAdvance(2, 5) // panic at shard 2's 5th watermark barrier
	cfg := baseCfg(4)
	cfg.CheckpointEvery = 2 * simnet.Second
	cfg.Hooks = inj.Hooks()
	faultAlerts, faultSnap, m := run(t, cfg, visits)

	if inj.Panics() != 1 {
		t.Fatalf("injected %d panics, want exactly 1", inj.Panics())
	}
	if m.ShardRestarts != 1 || m.RecordsLost != 0 || m.AlertsLost != 0 {
		t.Fatalf("barrier panic not cleanly recovered: restarts %d, records lost %d, alerts lost %d",
			m.ShardRestarts, m.RecordsLost, m.AlertsLost)
	}
	if !reflect.DeepEqual(faultAlerts, goldenAlerts) {
		t.Fatalf("alert stream diverged: %d vs %d golden", len(faultAlerts), len(goldenAlerts))
	}
	if !reflect.DeepEqual(faultSnap.Ranking, goldenSnap.Ranking) {
		t.Fatal("final snapshot ranking diverged")
	}
}

// TestKillRestartResume is the crash-and-recover drill: feed part of the
// stream with periodic durable checkpoints, kill the runtime without any
// graceful shutdown (Abort), resume a fresh runtime from disk, replay
// the feed from the reported cursor — the final analysis must be
// identical to a run that never crashed.
func TestKillRestartResume(t *testing.T) {
	visits := Workload(chaosServers, 6000, 19)
	_, goldenSnap, goldenM := run(t, baseCfg(4), visits)

	dir := t.TempDir()
	cfg := baseCfg(4)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 2 * simnet.Second

	rt1, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drained1 := drain(rt1)
	kill := 2 * len(visits) / 3
	for _, v := range visits[:kill] {
		if err := rt1.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if rt1.Metrics().Checkpoints == 0 {
		t.Fatal("no automatic checkpoints before the kill; cadence broken")
	}
	rt1.Abort() // crash: no seal, no final checkpoint
	<-drained1

	cfg2 := cfg
	cfg2.Resume = true
	rt2, err := stream.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	drained2 := drain(rt2)
	info := rt2.ResumeInfo()
	if !info.Resumed {
		t.Fatal("ResumeInfo.Resumed = false after checkpoints were written")
	}
	if info.SkipRecords <= 0 || info.SkipRecords > int64(kill) {
		t.Fatalf("SkipRecords = %d, want in (0, %d]", info.SkipRecords, kill)
	}
	if len(info.Warnings) != 0 {
		t.Fatalf("clean resume produced warnings: %v", info.Warnings)
	}
	for _, v := range visits[info.SkipRecords:] {
		if err := rt2.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	snap := rt2.Close()
	<-drained2
	m := rt2.Metrics()

	if !reflect.DeepEqual(snap.Ranking, goldenSnap.Ranking) {
		t.Fatal("resumed run's final ranking diverged from the uninterrupted run")
	}
	for _, cmp := range []struct {
		name          string
		resumed, gold int64
	}{
		{"IntervalsClosed", m.IntervalsClosed, goldenM.IntervalsClosed},
		{"Congested", m.Congested, goldenM.Congested},
		{"Freezes", m.Freezes, goldenM.Freezes},
		{"Reestimates", m.Reestimates, goldenM.Reestimates},
		{"Late", m.Late, goldenM.Late},
	} {
		if cmp.resumed != cmp.gold {
			t.Errorf("%s = %d, golden %d", cmp.name, cmp.resumed, cmp.gold)
		}
	}
}

// TestCheckpointCorruptionFallback: a torn newest checkpoint falls back
// to the previous generation with a warning; when every file is damaged
// the runtime cold-starts with warnings — it never crashes and never
// trusts damaged bytes.
func TestCheckpointCorruptionFallback(t *testing.T) {
	visits := Workload(chaosServers, 6000, 23)
	dir := t.TempDir()
	cfg := baseCfg(2)
	cfg.CheckpointDir = dir

	rt, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drained := drain(rt)
	for i, v := range visits {
		if err := rt.Observe(v); err != nil {
			t.Fatal(err)
		}
		// Two explicit cuts at different points, so two generations exist.
		if i == len(visits)/3 || i == 2*len(visits)/3 {
			if err := rt.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	rt.Abort()
	<-drained
	if got := len(Checkpoints(dir)); got != 2 {
		t.Fatalf("expected 2 checkpoint generations on disk, got %d", got)
	}

	if _, err := TruncateLatest(dir); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Resume = true
	rt2, err := stream.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	info := rt2.ResumeInfo()
	if !info.Resumed {
		t.Fatal("expected fallback to the older generation, got cold start")
	}
	if len(info.Warnings) == 0 {
		t.Fatal("falling back past a corrupt file must be reported in Warnings")
	}
	drained2 := drain(rt2)
	rt2.Abort()
	<-drained2

	if err := CorruptAll(dir); err != nil {
		t.Fatal(err)
	}
	rt3, err := stream.New(cfg2)
	if err != nil {
		t.Fatalf("all-corrupt checkpoints must cold-start, not fail: %v", err)
	}
	info = rt3.ResumeInfo()
	if info.Resumed {
		t.Fatal("Resumed = true with every checkpoint corrupt")
	}
	if len(info.Warnings) < 2 {
		t.Fatalf("expected a warning per damaged file, got %v", info.Warnings)
	}
	// The cold-started runtime must be fully usable.
	drained3 := drain(rt3)
	for _, v := range visits {
		if err := rt3.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if snap := rt3.Close(); snap == nil || len(snap.Ranking) == 0 {
		t.Fatal("cold-started runtime produced no analysis")
	}
	<-drained3
}
