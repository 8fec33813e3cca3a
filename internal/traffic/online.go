// Online fault injection: the simulators can consume a fault schedule
// mid-run, updating fault regions and safety levels incrementally
// through the dynamic tracker and handling in-flight packets whose
// next hop just died with a configurable policy.
package traffic

import (
	"fmt"

	"extmesh/internal/mesh"
	"extmesh/internal/metrics"

	"extmesh/internal/inject"
)

// Policy selects what happens to an in-flight packet whose next hop
// just died.
type Policy int

const (
	// PolicyReroute recomputes the route from the packet's current
	// node against the post-fault information (the Wu protocol, the
	// oracle or the XY baseline, whichever the run uses); a packet
	// with no surviving minimal next hop is dropped with a reason
	// code.
	PolicyReroute Policy = iota + 1
	// PolicyDegrade reroutes, and when no minimal hop survives falls
	// back to the paper's Extension-1 sub-minimal detour through a
	// spare neighbor (safe spares first), adding exactly two hops per
	// detour: a delivered packet's path has length D(s,d)+2k for k
	// detours.
	PolicyDegrade
	// PolicyDrop discards any packet whose next hop died — the
	// fail-stop baseline the other policies are measured against.
	PolicyDrop
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyReroute:
		return "reroute"
	case PolicyDegrade:
		return "degrade"
	case PolicyDrop:
		return "drop"
	default:
		return "invalid"
	}
}

func (p Policy) valid() bool {
	return p >= PolicyReroute && p <= PolicyDrop
}

// ParsePolicy resolves a policy name ("reroute", "degrade", "drop").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reroute":
		return PolicyReroute, nil
	case "degrade":
		return PolicyDegrade, nil
	case "drop":
		return PolicyDrop, nil
	default:
		return 0, fmt.Errorf("traffic: unknown fault policy %q (want reroute, degrade or drop)", s)
	}
}

// Online configures mid-run fault injection for a simulation run.
type Online struct {
	// InitialFaults is the pre-run fault list; replaying it through
	// the dynamic tracker must reproduce Config.Blocked exactly (the
	// run errors out otherwise). Online injection therefore works on
	// the block fault model, whose regions the tracker maintains.
	InitialFaults []mesh.Coord

	// Schedule is the fault arrival/recovery timeline, applied at the
	// start of each event's cycle (before injection). An empty
	// schedule reproduces the static run bit for bit, except that
	// PolicyDegrade also rescues packets stuck on the initial faults.
	Schedule inject.Schedule

	// Policy handles in-flight packets whose next hop died; the zero
	// value means PolicyReroute.
	Policy Policy

	// Rebuild returns the routing function for an updated fault-region
	// grid. It is called once per cycle that changed the fault state
	// (the grids passed in are fresh copies the callee may retain).
	// Required when Schedule is non-empty.
	Rebuild func(blocked []bool) RoutingFunc
}

// OnlineStats reports the fault-injection side of a run. Unlike Stats,
// whose packet counters cover only the measured window, these counters
// cover every packet (warmup and preload included) so that packet
// conservation — Spawned = DeliveredTotal + StuckTotal + Dropped() +
// Stats.InFlight — holds exactly; the run aborts with a *SimError if
// it does not.
type OnlineStats struct {
	Events   int // schedule events applied
	Skipped  int // schedule events skipped as inapplicable
	Rebuilds int // cycles whose events changed the fault state

	Spawned        int // packets that entered the system
	DeliveredTotal int // packets delivered
	StuckTotal     int // packets abandoned because routing got stuck

	Rerouted   int // packets pulled off a dead link and re-enqueued
	Degraded   int // packets that took at least one spare-neighbor detour
	DetourHops int // total distance-increasing hops taken

	DroppedNodeFailed int // packet's current node (or worm's source/chain) died
	DroppedDestFailed int // packet's destination died
	DroppedNoRoute    int // policy found no surviving move off a dead link
	DroppedPolicy     int // PolicyDrop discards
	DroppedLivelock   int // hop budget exceeded under degradation

	// StretchHist buckets delivered packets by path stretch
	// hops/D(s,d): bucket i counts stretches in [1+i/4, 1+(i+1)/4),
	// with the last bucket open-ended. Minimal paths land in bucket 0;
	// each Extension-1 detour pushes a packet right.
	StretchHist [8]int
}

// Dropped sums the per-reason drop counters.
func (o *OnlineStats) Dropped() int {
	return o.DroppedNodeFailed + o.DroppedDestFailed + o.DroppedNoRoute +
		o.DroppedPolicy + o.DroppedLivelock
}

// Publish adds the run's counters to the process-wide metrics registry
// under online_* names, so the same instruments that back a CLI run's
// printed ledger feed a daemon's /metrics exposition. Both simulators
// call it once per completed online run; counters accumulate across
// runs, as counters do.
func (o *OnlineStats) Publish() {
	r := metrics.Default()
	add := func(name string, v int) {
		if v > 0 {
			r.Counter(name).Add(uint64(v))
		}
	}
	add("online_events_applied_total", o.Events)
	add("online_events_skipped_total", o.Skipped)
	add("online_rebuilds_total", o.Rebuilds)
	add("online_spawned_total", o.Spawned)
	add("online_delivered_total", o.DeliveredTotal)
	add("online_stuck_total", o.StuckTotal)
	add("online_rerouted_total", o.Rerouted)
	add("online_degraded_total", o.Degraded)
	add("online_detour_hops_total", o.DetourHops)
	add("online_dropped_node_failed_total", o.DroppedNodeFailed)
	add("online_dropped_dest_failed_total", o.DroppedDestFailed)
	add("online_dropped_no_route_total", o.DroppedNoRoute)
	add("online_dropped_policy_total", o.DroppedPolicy)
	add("online_dropped_livelock_total", o.DroppedLivelock)
}

// RecordDelivery counts one delivered packet in the total ledger and
// its stretch histogram.
func (o *OnlineStats) RecordDelivery(hops, dist int) {
	o.DeliveredTotal++
	o.StretchHist[stretchBucket(hops, dist)]++
}

// stretchBucket maps a delivered packet's hop count to its StretchHist
// bucket.
func stretchBucket(hops, dist int) int {
	s := float64(hops)/float64(max(1, dist)) - 1
	b := int(s * 4)
	if b < 0 {
		b = 0
	}
	if b > 7 {
		b = 7
	}
	return b
}

// DefaultHopBudget is the per-packet link-traversal budget when the
// configuration does not set one: generous enough for any minimal
// route (at most W+H-2 hops) plus a long tail of Extension-1 detours,
// tight enough to flag a circulating packet quickly.
func DefaultHopBudget(m mesh.Mesh) int {
	return 4 * (m.Width + m.Height)
}
