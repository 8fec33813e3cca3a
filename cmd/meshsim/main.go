// Command meshsim regenerates the paper's evaluation figures plus the
// extra experiments (storage cost, end-to-end router delivery, paper
// variations, hypercube lineage, clustered workloads and the
// scalability sweep). Each experiment is printed as a fixed-width
// table — or JSON with -json — with one row per fault count and one
// column per curve.
//
// Usage:
//
//	meshsim [-exp all|fig7|fig8|fig9|fig10|fig11|fig12|info|router|var|lineage]
//	        [-n 200] [-configs 20] [-dests 50] [-seed 1] [-maxfaults 200]
//	        [-step 10] [-timing] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The defaults reproduce the paper's setup: a 200x200 mesh, the source
// at the center, destinations in the first-quadrant 100x100 submesh,
// and fault counts 10..200.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"extmesh/internal/cli"
	"extmesh/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshsim", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment to run: all, fig7, fig8, fig9, fig10, fig11, fig12")
		n         = fs.Int("n", 200, "mesh side length")
		configs   = fs.Int("configs", 20, "fault configurations per fault count")
		dests     = fs.Int("dests", 50, "destinations per configuration")
		seed      = fs.Int64("seed", 1, "PRNG seed")
		maxFaults = fs.Int("maxfaults", 200, "largest fault count")
		step      = fs.Int("step", 10, "fault count step")
		asJSON    = fs.Bool("json", false, "emit JSON instead of tables")
		clusters  = fs.Int("clusters", 0, "cluster the faults around this many centers (0 = uniform, the paper's workload)")
		spread    = fs.Int("spread", 4, "cluster spread (with -clusters)")
		scaling   = fs.Bool("scaling", false, "run the mesh-size scalability sweep instead of the figures")
		density   = fs.Float64("density", 0.005, "fault density for -scaling")
		prof      = cli.ProfileFlags(fs)
		timing    = fs.Bool("timing", false, "print the per-stage timing breakdown (setup/evaluation/aggregation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject an unknown experiment before paying for the simulation.
	want := strings.ToLower(*exp)
	if !*scaling && want != "all" {
		known := false
		for _, id := range sim.ExperimentIDs() {
			if strings.HasPrefix(id, want) {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown experiment %q; known ids: all %s", *exp, strings.Join(sim.ExperimentIDs(), " "))
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *scaling {
		sides := []int{50, 100, 150, 200, 300}
		points, err := sim.RunScaling(sides, *density, *configs, *dests, *seed)
		if err != nil {
			return err
		}
		tb := sim.ScalingTable(points, *density)
		fmt.Fprintf(out, "# extmesh scalability sweep, %d configs x %d dests per point, seed %d\n\n", *configs, *dests, *seed)
		if *asJSON {
			return sim.WriteJSON(out, []*sim.Table{tb})
		}
		return tb.Format(out)
	}

	cfg := sim.Config{
		N:              *n,
		Configurations: *configs,
		DestsPerConfig: *dests,
		Seed:           *seed,
		Clusters:       *clusters,
		ClusterSpread:  *spread,
	}
	for k := *step; k <= *maxFaults; k += *step {
		cfg.FaultCounts = append(cfg.FaultCounts, k)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	start := time.Now()
	ms, tm, err := sim.RunTimed(cfg)
	if err != nil {
		return err
	}
	workload := "uniform faults"
	if cfg.Clusters > 0 {
		workload = fmt.Sprintf("faults clustered around %d centers (spread %d)", cfg.Clusters, cfg.ClusterSpread)
	}
	fmt.Fprintf(out, "# extmesh evaluation: %dx%d mesh, %s, %d configs x %d dests per point, seed %d (%.1fs)\n",
		cfg.N, cfg.N, workload, cfg.Configurations, cfg.DestsPerConfig, cfg.Seed, time.Since(start).Seconds())
	if *timing {
		worked := tm.Setup + tm.Evaluation + tm.Aggregation
		fmt.Fprintf(out, "# stage breakdown (worker time): setup %.1fs (%.0f%%), evaluation %.1fs (%.0f%%), aggregation %.2fs\n",
			tm.Setup.Seconds(), 100*float64(tm.Setup)/float64(max(1, int64(worked))),
			tm.Evaluation.Seconds(), 100*float64(tm.Evaluation)/float64(max(1, int64(worked))),
			tm.Aggregation.Seconds())
	}
	fmt.Fprintln(out)

	var selected []*sim.Table
	for _, tb := range sim.AllTables(ms) {
		if want != "all" && !strings.HasPrefix(tb.ID, want) {
			continue
		}
		selected = append(selected, tb)
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *asJSON {
		return sim.WriteJSON(out, selected)
	}
	for _, tb := range selected {
		if err := tb.Format(out); err != nil {
			return err
		}
	}
	return nil
}
