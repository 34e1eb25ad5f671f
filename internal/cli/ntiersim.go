// Package cli implements the command-line tools as testable functions;
// the cmd/ binaries are thin wrappers around these.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"transientbd/internal/jvm"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/traceio"
	"transientbd/internal/workload"
)

// NtierSim runs the simulated four-tier testbed and writes its visit
// trace as JSONL, ready for TBDetect.
func NtierSim(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ntiersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		users     = fs.Int("users", 8000, "closed-loop user population (the paper's WL)")
		duration  = fs.Duration("duration", 0, "measured run length (default 3m)")
		ramp      = fs.Duration("ramp", 0, "warm-up excluded from measurement (default 20s)")
		seed      = fs.Int64("seed", 1, "random seed")
		speedstep = fs.Bool("speedstep", false, "enable the SpeedStep governor on the MySQL hosts")
		collector = fs.String("collector", "concurrent", "app-tier GC: none | serial | concurrent")
		bursty    = fs.Bool("bursty", true, "enable correlated client load bursts")
		out       = fs.String("out", "-", "visit JSONL output path (- for stdout)")
		msgOut    = fs.String("messages", "", "optional wire-message JSONL output path")
		order     = fs.String("order", "arrive", "visit output order: arrive (transaction-assembly order) | depart (per-host completion-log order — what tbdetect agent ships and the merge head's node watermark assumes)")
		scenario  = fs.String("scenario", "", "ground-truth battery scenario preset: "+strings.Join(ntier.ScenarioNames(), " | ")+" (explicitly set flags override preset fields)")
		truthOut  = fs.String("truth", "", "optional ground-truth JSON output path: injected cause kinds, target servers and injection windows (µs of trace time)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *order != "arrive" && *order != "depart" {
		return fmt.Errorf("ntiersim: unknown order %q (arrive|depart)", *order)
	}

	var cfg ntier.Config
	if *scenario != "" {
		// Start from the canonical scenario config; flags the user set
		// explicitly still win, so one scenario can be swept over seeds,
		// populations or collectors.
		var perr error
		cfg, perr = ntier.ScenarioPreset(*scenario, *seed,
			simnet.FromStdDuration(*duration), simnet.FromStdDuration(*ramp))
		if perr != nil {
			return perr
		}
		var flagErr error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "users":
				cfg.Users = *users
			case "speedstep":
				cfg.DBSpeedStep = *speedstep
			case "collector":
				if err := setCollector(&cfg, *collector); err != nil {
					flagErr = err
				}
			case "bursty":
				if *bursty {
					cfg.Burst = ntier.DefaultBurst()
				} else {
					cfg.Burst = workload.BurstConfig{}
				}
			}
		})
		if flagErr != nil {
			return flagErr
		}
	} else {
		cfg = ntier.Config{
			Users:       *users,
			Duration:    simnet.FromStdDuration(*duration),
			Ramp:        simnet.FromStdDuration(*ramp),
			Seed:        *seed,
			DBSpeedStep: *speedstep,
		}
		if err := setCollector(&cfg, *collector); err != nil {
			return err
		}
		if *bursty {
			cfg.Burst = ntier.DefaultBurst()
		}
	}

	sys, err := ntier.Build(cfg)
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	if *order == "depart" {
		// The merge head's canonical record order, so per-node splits of
		// this trace satisfy the agent's depart-sorted feed contract and
		// an N-agent run reproduces the single-feed analysis exactly.
		slices.SortStableFunc(res.Visits, trace.CompareDepart)
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("ntiersim: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := traceio.WriteVisits(w, res.Visits); err != nil {
		return err
	}
	if *msgOut != "" {
		f, err := os.Create(*msgOut)
		if err != nil {
			return fmt.Errorf("ntiersim: %w", err)
		}
		defer f.Close()
		if err := traceio.WriteMessages(f, res.Messages); err != nil {
			return err
		}
	}
	if *truthOut != "" {
		f, err := os.Create(*truthOut)
		if err != nil {
			return fmt.Errorf("ntiersim: %w", err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		truth := res.GroundTruth
		if truth == nil {
			truth = []ntier.GroundTruth{}
		}
		if err := enc.Encode(truth); err != nil {
			return fmt.Errorf("ntiersim: write truth: %w", err)
		}
	}

	if *scenario != "" {
		fmt.Fprintf(stderr, "ntiersim: scenario %s (%s): %d ground-truth records\n",
			*scenario, ntier.ScenarioDescription(*scenario), len(res.GroundTruth))
	}
	fmt.Fprintf(stderr, "ntiersim: WL %d for %v (+%v ramp): %d visits, %.0f pages/s, window [%v,%v]\n",
		cfg.Users, simnet.Std(sys.Config().Duration), simnet.Std(sys.Config().Ramp),
		len(res.Visits), res.PagesPerSecond(),
		simnet.Std(simnet.Duration(res.WindowStart)), simnet.Std(simnet.Duration(res.WindowEnd)))
	return nil
}

// setCollector applies the -collector flag value to a config.
func setCollector(cfg *ntier.Config, collector string) error {
	switch collector {
	case "none":
		cfg.AppCollector = 0
	case "serial":
		cfg.AppCollector = jvm.CollectorSerial
	case "concurrent":
		cfg.AppCollector = jvm.CollectorConcurrent
	default:
		return fmt.Errorf("ntiersim: unknown collector %q (none|serial|concurrent)", collector)
	}
	return nil
}
