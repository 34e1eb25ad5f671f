package experiments

import (
	"fmt"

	"transientbd/internal/monitor"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
)

// Fig3Result reproduces Figure 3 (Tomcat and MySQL CPU utilization
// timelines at 1 s granularity at WL 8,000) and Table I (per-tier average
// resource utilization) from the same run.
type Fig3Result struct {
	// TomcatUtil and MySQLUtil are 1 s utilization samples over the
	// measured window (tier averages).
	TomcatUtil, MySQLUtil []float64
	// TomcatAvg and MySQLAvg are the window means (paper: 79.9% and
	// 78.1%).
	TomcatAvg, MySQLAvg float64
	// TableI rows: tier → CPU %, net receive/send MB/s.
	TierCPU map[string]float64
	TierNet map[string][2]float64
}

// Fig3TableI runs WL 8,000 in the §II-B configuration and collects the
// coarse-grained monitoring views.
func Fig3TableI(opts RunOpts) (*Fig3Result, error) {
	cfg := testbed(8000, opts)
	cfg.DBSpeedStep = true
	sys, err := ntier.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig3: build: %w", err)
	}
	// Attach a 1 s sampler (Sysstat's granularity) before running.
	targets := make([]monitor.Target, 0, 6)
	for _, srv := range sys.AllServers() {
		targets = append(targets, srv)
	}
	sampler, err := monitor.NewSampler(sys.Engine(), targets, simnet.Second)
	if err != nil {
		return nil, fmt.Errorf("fig3: sampler: %w", err)
	}
	sampler.Start()
	res, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("fig3: run: %w", err)
	}

	out := &Fig3Result{
		TierCPU: map[string]float64{},
		TierNet: map[string][2]float64{},
	}
	avgSeries := func(names ...string) []float64 {
		var merged []float64
		for _, name := range names {
			ss := sampler.Samples(name)
			for i, s := range ss {
				if s.At < res.WindowStart || s.At >= res.WindowEnd {
					continue
				}
				idx := i // samples are aligned across servers (same ticks)
				for len(merged) <= idx {
					merged = append(merged, 0)
				}
				merged[idx] += s.Util / float64(len(names))
			}
		}
		// Trim leading zeros created by ramp skipping misalignment.
		var outSeries []float64
		for _, v := range merged {
			if v > 0 || len(outSeries) > 0 {
				outSeries = append(outSeries, v)
			}
		}
		return outSeries
	}
	out.TomcatUtil = avgSeries("tomcat-1", "tomcat-2")
	out.MySQLUtil = avgSeries("mysql-1", "mysql-2")
	out.TomcatAvg = tierUtil(res, "tomcat")
	out.MySQLAvg = tierUtil(res, "mysql")

	rates := netRates(res)
	tiers := map[string][]string{
		"Apache": {"apache"},
		"Tomcat": {"tomcat-1", "tomcat-2"},
		"CJDBC":  {"cjdbc"},
		"MySQL":  {"mysql-1", "mysql-2"},
	}
	for tier, members := range tiers {
		var cpu float64
		var net [2]float64
		for _, m := range members {
			cpu += res.Utilization[m]
			r := rates[m]
			net[0] += r[0]
			net[1] += r[1]
		}
		cpu /= float64(len(members))
		out.TierCPU[tier] = cpu
		out.TierNet[tier] = net
	}
	return out, nil
}

// Table renders Table I.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:  "Table I: average resource utilization per tier at WL 8,000",
		Header: []string{"Server/Resource", "CPU util (%)", "Net recv/send (MB/s)"},
	}
	for _, tier := range []string{"Apache", "Tomcat", "CJDBC", "MySQL"} {
		net := r.TierNet[tier]
		t.AddRow(tier,
			fmt.Sprintf("%.1f", 100*r.TierCPU[tier]),
			fmt.Sprintf("%.1f/%.1f", net[0], net[1]))
	}
	return t
}

// TimelineString renders the Fig 3 utilization strips.
func (r *Fig3Result) TimelineString() string {
	return fmt.Sprintf(
		"Figure 3: CPU utilization @1s (tier averages)\nTomcat (avg %.1f%%): %s\nMySQL  (avg %.1f%%): %s\n",
		100*r.TomcatAvg, Sparkline(r.TomcatUtil, 60),
		100*r.MySQLAvg, Sparkline(r.MySQLUtil, 60))
}
