package traffic

import "fmt"

// Invariant identifies one of the simulators' always-on self-checks.
// A violated invariant means the simulation itself is broken — its
// statistics are nonsense — so the run aborts with a *SimError instead
// of returning numbers.
type Invariant int

const (
	// InvariantConservation is packet conservation: every packet that
	// entered the system must be accounted for at the end —
	// injected = delivered + stuck + dropped + in-flight, counted over
	// all packets (warmup and preload included).
	InvariantConservation Invariant = iota + 1
	// InvariantLivelock is the hop budget: no packet may traverse more
	// links than the configured budget. Static minimal routing can
	// never exceed it, so a violation flags a circulating packet.
	// (Online degrade runs drop the offending packet with a reason
	// code instead — degradation livelock is an expected outcome
	// there, not a simulator bug.)
	InvariantLivelock
	// InvariantStall is the stalled-queue deadlock detector firing in
	// a configuration that provably cannot deadlock (per-quadrant
	// class channels with minimal routing): the stall must be a
	// simulator bug. Deadlocks in configurations where they are a
	// legitimate outcome keep being reported through Stats.Deadlocked.
	InvariantStall
)

// String names the invariant.
func (i Invariant) String() string {
	switch i {
	case InvariantConservation:
		return "packet conservation"
	case InvariantLivelock:
		return "hop budget (livelock)"
	case InvariantStall:
		return "deadlock freedom"
	default:
		return "invalid"
	}
}

// SimError is a structured invariant-violation report from a simulator
// run. The statistics accumulated up to the violation are not returned:
// a run that trips an invariant has produced garbage.
type SimError struct {
	Sim    string // the simulator that tripped, "traffic"
	Kind   Invariant
	Cycle  int
	Detail string
}

// Error implements the error interface.
func (e *SimError) Error() string {
	return fmt.Sprintf("%s: %v invariant violated at cycle %d: %s", e.Sim, e.Kind, e.Cycle, e.Detail)
}
