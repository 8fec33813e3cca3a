// Load simulation: drive a faulty mesh as a communication subsystem
// through the public API. The same network is simulated under rising
// injection rates with three per-hop routers — Wu's limited-information
// protocol, the full-information oracle, and the fault-oblivious XY
// baseline — under store-and-forward packet switching.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"extmesh"
)

func main() {
	const side = 24
	rng := rand.New(rand.NewSource(31))
	var faults []extmesh.Coord
	seen := make(map[extmesh.Coord]bool)
	for len(faults) < 18 {
		c := extmesh.Coord{X: rng.Intn(side), Y: rng.Intn(side)}
		if !seen[c] {
			seen[c] = true
			faults = append(faults, c)
		}
	}
	net, err := extmesh.New(side, side, faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%dx%d mesh, %d faults, %d blocks\n\n", side, side, len(faults), len(net.Blocks()))

	routers := []struct {
		name string
		kind extmesh.RoutingKind
	}{
		{"wu", extmesh.WuProtocol},
		{"oracle", extmesh.OracleRouter},
		{"xy", extmesh.XYRouter},
	}

	fmt.Println("store-and-forward packet switching:")
	fmt.Printf("%8s  %8s  %10s  %10s  %10s\n", "router", "rate", "delivered", "stranded", "latency")
	for _, r := range routers {
		for _, rate := range []float64{0.01, 0.05} {
			opts := extmesh.DefaultTrafficOptions()
			opts.Routing = r.kind
			opts.InjectionRate = rate
			opts.Cycles = 300
			opts.Warmup = 60
			st, err := net.SimulateTraffic(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8s  %8.2f  %10d  %10d  %10.2f\n",
				r.name, rate, st.Delivered, st.Undeliverable, st.AvgLatency)
		}
	}
	fmt.Println()
	fmt.Println("Wu's limited-information protocol strands nothing on guaranteed")
	fmt.Println("pairs and tracks the oracle's latency; XY routing loses packets.")
}
