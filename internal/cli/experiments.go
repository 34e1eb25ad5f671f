package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"transientbd/internal/experiments"
	"transientbd/internal/simnet"
)

// Experiments lists or runs the paper-artifact regenerators.
//
//	experiments list
//	experiments run <id>|all [-quick] [-seed N] [-duration D] [-data DIR]
func Experiments(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("experiments: usage: list | run <id>|all [flags]")
	}
	switch args[0] {
	case "list":
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-10s  %s\n", r.ID, r.Description)
		}
		return nil
	case "run":
		return runExperiments(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("experiments: unknown subcommand %q (list|run)", args[0])
	}
}

func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "reduced-duration runs (~40s window instead of 3m)")
		seed     = fs.Int64("seed", 1, "random seed")
		duration = fs.Duration("duration", 0, "override measured window length")
		dataDir  = fs.String("data", "", "also write the figure's numeric series as CSV into this directory")
	)
	// Accept "run <id> -flags" and "run -flags <id>".
	var id string
	rest := args
	if len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		id = rest[0]
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if id == "" && fs.NArg() > 0 {
		id = fs.Arg(0)
	}
	if id == "" {
		return fmt.Errorf("experiments: run needs an experiment id (or 'all'); see 'experiments list'")
	}

	opts := experiments.RunOpts{Seed: *seed}
	if *quick {
		opts = experiments.QuickOpts(*seed)
	}
	if *duration > 0 {
		opts.Duration = simnet.FromStdDuration(*duration)
	}

	if id == "all" {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "=== %s: %s ===\n", r.ID, r.Description)
			start := time.Now()
			if err := r.Run(stdout, opts); err != nil {
				return fmt.Errorf("experiments: %s: %w", r.ID, err)
			}
			fmt.Fprintf(stderr, "[%s done in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	r, err := experiments.Find(id)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		if err := experiments.WriteData(id, *dataDir, opts); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "[%s data written to %s]\n", id, *dataDir)
		return nil
	}
	return r.Run(stdout, opts)
}
