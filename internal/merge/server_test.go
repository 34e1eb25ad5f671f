package merge

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"transientbd/internal/agent"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// Done's waiter may Close the server at once (tbdetect merge does), and
// Close cuts every connection. Every agent must already hold its Goodbye
// echo by then: one cut before the echo redials a head that is gone and
// fails after complete acknowledged delivery. All agents finish together
// here, so the last Goodbye arrives while other echoes are still owed.
func TestServerEchoesEveryGoodbyeBeforeDone(t *testing.T) {
	const agents, rounds = 4, 60
	feed := jsonlFeed(t, []trace.Visit{
		{Server: "s", Arrive: 0, Depart: 10 * simnet.Millisecond},
		{Server: "s", Arrive: 20 * simnet.Millisecond, Depart: 30 * simnet.Millisecond},
	})
	names := make([]string, agents)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	for round := 0; round < rounds; round++ {
		srv, err := NewServer(ServerConfig{Core: Config{
			Stream: stream.Config{Online: core.OnlineOptions{
				Options: core.Options{Interval: 50 * simnet.Millisecond, ServiceTimes: testServiceTimes},
			}},
			ExpectNodes:      names,
			HeartbeatTimeout: time.Minute,
		}})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		go func() {
			for range srv.Alerts() {
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		errs := make(chan error, agents)
		for _, name := range names {
			go func(name string) {
				_, err := agent.Run(ctx, bytes.NewReader(feed), agent.Config{
					Node: name, Addr: addr, MaxDials: 2,
					BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
				})
				errs <- err
			}(name)
		}
		select {
		case <-srv.Done():
		case <-ctx.Done():
			t.Fatalf("round %d: head did not finish", round)
		}
		srv.Close()
		for range names {
			if err := <-errs; err != nil {
				t.Errorf("round %d: agent failed after complete delivery: %v", round, err)
			}
		}
		cancel()
	}
}
