//go:build race

package transientbd

// raceEnabled reports whether the race detector is compiled in. The
// allocation-budget test skips under -race: the detector's
// instrumentation allocates, so AllocsPerRun would measure the detector,
// not the code.
const raceEnabled = true
