package merge

import (
	"testing"

	"transientbd/internal/chaos"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
)

// BenchmarkCoreRelease times the merge head from New to Finish on two
// nodes in the repository benchmark's shape: node A (one server) sends
// its whole feed and its goodbye before node B (two servers) sends its
// first batch, so A's records wait at the head while B holds back the
// release point, and every B batch releases a little of both.
func BenchmarkCoreRelease(b *testing.B) {
	all := chaos.Workload([]string{"a", "b", "c"}, 60_000, 3)
	feeds := partitionByServer(all, map[string]string{"a": "A", "b": "B", "c": "B"})
	cfg := Config{
		Stream: stream.Config{
			Online: core.OnlineOptions{
				Options:         core.Options{Interval: 50 * simnet.Millisecond, ServiceTimes: testServiceTimes},
				WindowIntervals: 600,
			},
		},
		FlushLag:    simnet.Second,
		ExpectNodes: []string{"A", "B"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		_, wait := drainAlerts(c)
		for _, name := range []string{"A", "B"} {
			c.Admit(name, 1)
			batches := toBatches(feeds[name], 512)
			for s, batch := range batches {
				if _, err := c.Batch(name, uint64(s+1), batch); err != nil {
					b.Fatalf("node %s batch %d: %v", name, s+1, err)
				}
			}
			if err := c.EOF(name, uint64(len(batches))); err != nil {
				b.Fatalf("node %s eof: %v", name, err)
			}
		}
		c.Finish()
		wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/record")
}
