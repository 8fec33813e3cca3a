package extmesh_test

import (
	"fmt"
	"log"

	"extmesh"
)

// The Figure 1 fault pattern of the paper: eight faults that aggregate
// into the faulty block [2:6, 3:6] of a 12x12 mesh.
func paperFaults() []extmesh.Coord {
	return []extmesh.Coord{
		{X: 3, Y: 3}, {X: 3, Y: 4}, {X: 4, Y: 4}, {X: 5, Y: 4},
		{X: 6, Y: 4}, {X: 2, Y: 5}, {X: 5, Y: 5}, {X: 3, Y: 6},
	}
}

func ExampleNew() {
	net, err := extmesh.New(12, 12, paperFaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("blocks:", net.Blocks())
	fmt.Println("deactivated:", net.DisabledCount(extmesh.Blocks), "(blocks),",
		net.DisabledCount(extmesh.MCC), "(MCC)")
	// Output:
	// blocks: [[2:6, 3:6]]
	// deactivated: 12 (blocks), 8 (MCC)
}

func ExampleNetwork_SafetyLevel() {
	net, err := extmesh.New(12, 12, paperFaults())
	if err != nil {
		log.Fatal(err)
	}
	lvl, err := net.SafetyLevel(extmesh.Coord{X: 0, Y: 3}, extmesh.Blocks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lvl)
	// Output:
	// (2,inf,inf,inf)
}

func ExampleNetwork_Ensure() {
	net, err := extmesh.New(12, 12, paperFaults())
	if err != nil {
		log.Fatal(err)
	}
	s := extmesh.Coord{X: 0, Y: 3} // row blocked at x=2: unsafe
	d := extmesh.Coord{X: 9, Y: 10}
	fmt.Println("base safe:", net.Safe(s, d, extmesh.Blocks))
	a := net.Ensure(s, d, extmesh.Blocks, extmesh.DefaultStrategy())
	fmt.Println("strategy verdict:", a.Verdict)
	// Output:
	// base safe: false
	// strategy verdict: minimal
}

func ExampleNetwork_RouteAssured() {
	net, err := extmesh.New(12, 12, paperFaults())
	if err != nil {
		log.Fatal(err)
	}
	s := extmesh.Coord{X: 0, Y: 0}
	d := extmesh.Coord{X: 9, Y: 5}
	path, a, err := net.RouteAssured(s, d, extmesh.Blocks, extmesh.DefaultStrategy())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a.Verdict, "in", path.Hops(), "hops")
	// Output:
	// minimal in 14 hops
}

func ExampleNewDynamic() {
	dyn, err := extmesh.NewDynamic(10, 10)
	if err != nil {
		log.Fatal(err)
	}
	if err := dyn.AddFault(extmesh.Coord{X: 4, Y: 0}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("level at origin:", dyn.SafetyLevel(extmesh.Coord{X: 0, Y: 0}))
	cascade, rows, cols := dyn.LastUpdateCost()
	fmt.Printf("update touched %d node, %d row, %d column\n", cascade, rows, cols)
	// Output:
	// level at origin: (4,inf,inf,inf)
	// update touched 1 node, 1 row, 1 column
}

func ExampleNetwork_HasMinimalPathAvoidingBlocks() {
	net, err := extmesh.New(12, 12, paperFaults())
	if err != nil {
		log.Fatal(err)
	}
	s := extmesh.Coord{X: 0, Y: 0}
	d := extmesh.Coord{X: 2, Y: 6} // healthy, but swallowed by the block
	fmt.Println("fault-avoiding:", net.HasMinimalPath(s, d))
	fmt.Println("block-avoiding:", net.HasMinimalPathAvoidingBlocks(s, d, extmesh.Blocks))
	fmt.Println("MCC-avoiding:  ", net.HasMinimalPathAvoidingBlocks(s, d, extmesh.MCC))
	// Output:
	// fault-avoiding: true
	// block-avoiding: false
	// MCC-avoiding:   true
}
