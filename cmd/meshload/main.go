// Command meshload runs the store-and-forward traffic simulator on a
// faulty mesh and prints latency/throughput versus injection rate, for
// Wu's limited-information protocol and the full-information oracle.
// It extends the paper's evaluation from path-existence percentages to
// communication-subsystem performance under load.
//
// With -fault-rate or -fault-schedule the run becomes an online
// fault-tolerance experiment: faults arrive (and possibly recover)
// mid-run, fault regions and safety levels update incrementally, and
// in-flight packets whose link died are rerouted, degraded to
// Extension-1 spare-neighbor detours, or dropped per -policy.
//
// Usage:
//
//	meshload [-n 32] [-k 30] [-seed 1] [-cycles 400] [-warmup 100]
//	         [-rates "0.01,0.02,0.05,0.1,0.2"]
//	         [-fault-rate 0.001 | -fault-schedule "bursts:count=2,size=6"]
//	         [-policy reroute|degrade|drop] [-fault-seed 7]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"extmesh/internal/cli"
	"extmesh/internal/fault"
	"extmesh/internal/inject"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshload", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 32, "mesh side length")
		k          = fs.Int("k", 30, "number of random faults")
		seed       = fs.Int64("seed", 1, "PRNG seed")
		cycles     = fs.Int("cycles", 400, "measured cycles")
		warmup     = fs.Int("warmup", 100, "warmup cycles")
		rates      = fs.String("rates", "0.01,0.02,0.05,0.1,0.2", "comma-separated injection rates")
		capacity   = fs.Int("capacity", 0, "per-link queue capacity (0 = unbounded)")
		faultSched = fs.String("fault-schedule", "", "online fault schedule (random:rate=R, bursts:count=B,size=S,spread=P, transient:rate=R,repair=C, or fail@CYCLE:X,Y;... events)")
		faultRate  = fs.Float64("fault-rate", 0, "shorthand for -fault-schedule random:rate=R")
		policyName = fs.String("policy", "reroute", "in-flight packet policy under online faults: reroute, degrade or drop")
		faultSeed  = fs.Int64("fault-seed", 0, "fault schedule seed (0 = seed+1)")
		prof       = cli.ProfileFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	var rateList []float64
	for _, s := range strings.Split(*rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad rate %q: %v", s, err)
		}
		rateList = append(rateList, v)
	}

	m := mesh.Mesh{Width: *n, Height: *n}
	rng := rand.New(rand.NewSource(*seed))
	faults, err := fault.RandomFaults(m, *k, rng, nil)
	if err != nil {
		return err
	}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		return err
	}
	blocked := fault.BuildBlocks(sc).BlockedGrid()

	routers := []struct {
		name    string
		fn      traffic.RoutingFunc
		rebuild func([]bool) traffic.RoutingFunc
	}{
		{"wu", traffic.WuRouting(route.NewRouter(m, blocked)),
			func(b []bool) traffic.RoutingFunc { return traffic.WuRouting(route.NewRouter(m, b)) }},
		{"oracle", traffic.OracleRouting(m, blocked),
			func(b []bool) traffic.RoutingFunc { return traffic.OracleRouting(m, b) }},
		{"xy", traffic.XYRouting(m, blocked),
			func(b []bool) traffic.RoutingFunc { return traffic.XYRouting(m, b) }},
	}

	// Online fault injection: parse the schedule (or the -fault-rate
	// shorthand) and the packet policy up front.
	spec := *faultSched
	if *faultRate > 0 {
		if spec != "" {
			return fmt.Errorf("-fault-rate and -fault-schedule are mutually exclusive")
		}
		spec = fmt.Sprintf("random:rate=%g", *faultRate)
	}
	online := spec != ""
	var sched inject.Schedule
	policy := traffic.PolicyReroute
	fseed := *faultSeed
	if online {
		var err error
		if policy, err = traffic.ParsePolicy(*policyName); err != nil {
			return err
		}
		if fseed == 0 {
			fseed = *seed + 1
		}
		if sched, err = inject.Parse(m, *warmup+*cycles, fseed, spec, math.MaxInt); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "# store-and-forward traffic on a %dx%d mesh with %d faults (seed %d), %d+%d cycles, guaranteed pairs only\n",
		*n, *n, *k, *seed, *warmup, *cycles)
	if online {
		fmt.Fprintf(out, "# online faults: %s (%d events, fault seed %d), policy %v\n",
			spec, len(sched), fseed, policy)
		fmt.Fprintf(out, "%8s  %8s  %10s  %10s  %10s  %10s  %10s  %10s  %8s  %8s  %8s  %8s\n",
			"router", "rate", "delivered", "stranded", "latency", "stretch", "maxqueue", "throughput",
			"events", "rerouted", "degraded", "dropped")
	} else {
		fmt.Fprintf(out, "%8s  %8s  %10s  %10s  %10s  %10s  %10s  %10s\n",
			"router", "rate", "delivered", "stranded", "latency", "stretch", "maxqueue", "throughput")
	}
	for _, r := range routers {
		for _, rate := range rateList {
			var on *traffic.Online
			if online {
				on = &traffic.Online{
					InitialFaults: faults,
					Schedule:      sched,
					Policy:        policy,
					Rebuild:       r.rebuild,
				}
			}
			cfg := traffic.Config{
				M:              m,
				Blocked:        blocked,
				Route:          r.fn,
				InjectionRate:  rate,
				Cycles:         *cycles,
				Warmup:         *warmup,
				Seed:           *seed,
				GuaranteedOnly: true,
				QueueCapacity:  *capacity,
			}
			var (
				st  traffic.Stats
				ost traffic.OnlineStats
				err error
			)
			if online {
				st, ost, err = traffic.RunOnline(cfg, on)
			} else {
				st, err = traffic.Run(cfg)
			}
			if err != nil {
				return err
			}
			note := ""
			if st.Deadlocked {
				note = "  DEADLOCK"
			}
			if online {
				fmt.Fprintf(out, "%8s  %8.3f  %10d  %10d  %10.2f  %10.3f  %10d  %10.4f  %8d  %8d  %8d  %8d%s\n",
					r.name, rate, st.Delivered, st.Undeliverable, st.AvgLatency, st.AvgStretch, st.MaxQueue, st.Throughput,
					ost.Events, ost.Rerouted, ost.Degraded, ost.Dropped(), note)
			} else {
				fmt.Fprintf(out, "%8s  %8.3f  %10d  %10d  %10.2f  %10.3f  %10d  %10.4f%s\n",
					r.name, rate, st.Delivered, st.Undeliverable, st.AvgLatency, st.AvgStretch, st.MaxQueue, st.Throughput, note)
			}
		}
	}
	return nil
}
