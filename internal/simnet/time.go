// Package simnet provides the discrete-event simulation substrate used by
// every simulated component in this repository: a virtual clock, an event
// engine with deterministic ordering, and seeded random-number streams.
//
// The simulator is single-threaded by design. Determinism is a hard
// requirement: every experiment in the paper reproduction must be exactly
// replayable from its seed, so the engine never consults wall-clock time
// and never spawns goroutines.
package simnet

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp measured in microseconds since the start of
// the simulation. The paper's passive network tracing records timestamps at
// microsecond granularity (§I), so a microsecond tick is the natural unit.
type Time int64

// Duration is a virtual time span in microseconds.
type Duration = Time

// Common duration units, mirroring package time but in virtual microseconds.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// FromStdDuration converts a time.Duration to a virtual Duration, truncating
// to microsecond resolution.
func FromStdDuration(d time.Duration) Duration {
	return Duration(d.Microseconds())
}

// Std converts a virtual duration to a time.Duration.
func Std(d Duration) time.Duration {
	return time.Duration(d) * time.Microsecond
}

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Millis reports the time as floating-point milliseconds.
func (t Time) Millis() float64 {
	return float64(t) / float64(Millisecond)
}

// String formats the timestamp as seconds with millisecond precision,
// e.g. "12.345s".
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}
