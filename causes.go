package transientbd

// CauseVerdict is one ranked root-cause claim attached to a Report: the
// attribution engine's best explanation for why a server congested.
// Verdicts are a pure function of the per-server series in the report,
// so the batch and streaming surfaces emit field-identical verdicts for
// equivalent windows, and the ranking is deterministic and invariant
// under a uniform time shift of the input.
type CauseVerdict struct {
	// Kind names the fingerprinted cause: "conn-pool-exhaustion",
	// "lock-convoy", "cache-stampede", "noisy-neighbor", "overload",
	// "autoscale-slow-start", "gc-pause" or "saturation".
	Kind string
	// Server is where the cause acts. For pool exhaustion this is the
	// capped server itself even when it never classifies congested —
	// the clip is witnessed from its queueing callers.
	Server string
	// Confidence in (0, 1]: how sharply the fingerprint matched.
	Confidence float64
	// Score ranks verdicts across servers: congested fraction ×
	// unexplained share × confidence. Causes are sorted by Score
	// descending.
	Score float64
	// Evidence is human-readable support, free of absolute timestamps.
	Evidence []string
}
