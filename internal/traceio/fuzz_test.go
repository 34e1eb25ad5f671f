package traceio

import (
	"bytes"
	"testing"

	"transientbd/internal/trace"
)

// FuzzDecodeVisits asserts the lenient decoder's contract over arbitrary
// bytes: it never panics, never fails, and its
// stats always add up (every non-blank line is decoded, malformed, or
// invalid — nothing is silently lost). Strict mode over the same bytes
// must never decode more than lenient mode did.
func FuzzDecodeVisits(f *testing.F) {
	f.Add([]byte(`{"server":"s","arrive_us":1,"depart_us":2}` + "\n"))
	f.Add([]byte("{not json\n" + `{"server":"s","arrive_us":1,"depart_us":2}`))
	f.Add([]byte(`{"server":"s","arrive_us":9,"depart_us":1}` + "\n\n\n"))
	f.Add([]byte("\x00\xff\xfe garbage \n{\"server\""))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lenient int
		stats, err := StreamVisitsOpts(bytes.NewReader(data), StreamOptions{Policy: Skip, BatchSize: 3},
			func(batch []trace.Visit) error {
				for _, v := range batch {
					if v.Depart < v.Arrive || v.Server == "" {
						t.Fatalf("lenient decode emitted invalid visit %+v", v)
					}
				}
				lenient += len(batch)
				return nil
			})
		if err != nil {
			t.Fatalf("Skip policy must not fail: %v", err)
		}
		if stats.Decoded != lenient {
			t.Fatalf("stats.Decoded = %d, callback saw %d", stats.Decoded, lenient)
		}
		if stats.Decoded+stats.Malformed+stats.Invalid != stats.Lines {
			t.Fatalf("stats do not add up: %+v", stats)
		}

		var strict int
		if _, err := StreamVisitsOpts(bytes.NewReader(data), StreamOptions{BatchSize: 3}, func(batch []trace.Visit) error {
			strict += len(batch)
			return nil
		}); err == nil && strict != lenient {
			t.Fatalf("strict decoded %d without error but lenient decoded %d", strict, lenient)
		}
		if strict > lenient {
			t.Fatalf("strict decoded %d > lenient %d", strict, lenient)
		}
	})
}
