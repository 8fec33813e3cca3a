package extmesh

import (
	"fmt"
	"math"

	"extmesh/internal/inject"
	"extmesh/internal/route"
	"extmesh/internal/traffic"
)

// RoutingKind selects the routing function driving a traffic
// simulation.
type RoutingKind int

// Routing kinds available to SimulateTraffic.
const (
	// WuProtocol routes with the paper's limited-information protocol.
	WuProtocol RoutingKind = iota + 1
	// OracleRouter routes with full global information (upper bound).
	OracleRouter
	// XYRouter is the classic fault-oblivious dimension-ordered
	// baseline.
	XYRouter
)

// FaultPolicy decides what happens to an in-flight packet whose next
// hop dies during an online fault-injection run.
type FaultPolicy = traffic.Policy

// Fault policies available to SimulateTraffic.
const (
	// RerouteFaults re-routes affected packets from their current node.
	RerouteFaults = traffic.PolicyReroute
	// DegradeFaults re-routes and, when no minimal path survives, takes
	// the paper's Extension-1 sub-minimal spare-neighbor detour.
	DegradeFaults = traffic.PolicyDegrade
	// DropFaults discards affected packets (fail-stop baseline).
	DropFaults = traffic.PolicyDrop
)

// TrafficOptions configures a SimulateTraffic run. The zero value is
// not valid; start from DefaultTrafficOptions.
type TrafficOptions struct {
	Model   FaultModel
	Routing RoutingKind

	// InjectionRate is the probability per healthy node per cycle of
	// injecting one packet to a uniformly random healthy destination.
	InjectionRate float64
	Cycles        int
	Warmup        int
	Seed          int64

	// GuaranteedOnly restricts traffic to pairs with a minimal path.
	GuaranteedOnly bool

	// QueueCapacity bounds each per-link queue (0 = unbounded) in
	// store-and-forward mode; ClassChannels adds one virtual channel
	// per quadrant class, which makes minimal routing deadlock-free.
	QueueCapacity int
	ClassChannels bool

	// FaultSchedule injects faults mid-run, in inject.Parse syntax:
	// "random:rate=0.001", "bursts:count=2,size=6,spread=2",
	// "transient:rate=0.001,repair=50", or an explicit event list like
	// "fail@10:3,4;recover@50:3,4". Empty disables online injection.
	// Online injection maintains fault regions incrementally and is
	// only available under the Blocks model.
	FaultSchedule string
	// FaultRate is shorthand for FaultSchedule "random:rate=<v>"; the
	// two are mutually exclusive.
	FaultRate float64
	// FaultPolicy handles in-flight packets whose next hop died; zero
	// means RerouteFaults.
	FaultPolicy FaultPolicy
	// FaultSeed seeds generated fault schedules; zero means Seed+1, so
	// fault arrivals stay decoupled from the traffic stream.
	FaultSeed int64
}

// DefaultTrafficOptions returns a light uniform load under the block
// model with Wu-protocol routing.
func DefaultTrafficOptions() TrafficOptions {
	return TrafficOptions{
		Model:          Blocks,
		Routing:        WuProtocol,
		InjectionRate:  0.02,
		Cycles:         400,
		Warmup:         100,
		Seed:           1,
		GuaranteedOnly: true,
	}
}

// online reports whether the options request mid-run fault injection.
func (o TrafficOptions) online() bool {
	return o.FaultSchedule != "" || o.FaultRate > 0
}

// Validate reports whether the options describe a runnable simulation,
// with a descriptive error naming the offending field otherwise.
func (o TrafficOptions) Validate() error {
	if o.InjectionRate < 0 || o.InjectionRate > 1 {
		return fmt.Errorf("extmesh: injection rate %v outside [0,1]", o.InjectionRate)
	}
	if o.Cycles <= 0 {
		return fmt.Errorf("extmesh: cycles must be positive, got %d", o.Cycles)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("extmesh: warmup must be non-negative, got %d", o.Warmup)
	}
	if o.Warmup >= o.Cycles {
		return fmt.Errorf("extmesh: warmup (%d) must be smaller than cycles (%d) or no cycle is measured", o.Warmup, o.Cycles)
	}
	if o.QueueCapacity < 0 {
		return fmt.Errorf("extmesh: queue capacity must be non-negative, got %d", o.QueueCapacity)
	}
	if o.FaultRate < 0 || o.FaultRate > 1 {
		return fmt.Errorf("extmesh: fault rate %v outside [0,1]", o.FaultRate)
	}
	if o.FaultRate > 0 && o.FaultSchedule != "" {
		return fmt.Errorf("extmesh: FaultRate and FaultSchedule are mutually exclusive")
	}
	if o.online() {
		if o.Model != Blocks {
			return fmt.Errorf("extmesh: online fault injection requires the Blocks model")
		}
		if p := o.FaultPolicy; p != 0 && (p < RerouteFaults || p > DropFaults) {
			return fmt.Errorf("extmesh: invalid fault policy %d", p)
		}
	}
	return nil
}

// TrafficStats is the unified outcome of a traffic simulation.
type TrafficStats struct {
	Injected      int
	Delivered     int
	Undeliverable int
	Deadlocked    bool
	AvgLatency    float64
	AvgStretch    float64
	Throughput    float64

	// Online fault-injection outcome; all zero for static runs.
	FaultEvents int // schedule events applied
	Rerouted    int // packets pulled off a dead link and re-enqueued
	Degraded    int // packets that took at least one spare-neighbor detour
	Dropped     int // packets lost to faults, all reasons
	// StretchHist buckets every delivered packet (warmup included) by
	// path stretch hops/distance: bucket i covers [1+i/4, 1+(i+1)/4),
	// the last bucket open-ended.
	StretchHist [8]int
}

// SimulateTraffic runs the network under uniform random load and
// reports delivery statistics under store-and-forward packet switching,
// with Wu's protocol, the oracle, or the XY baseline making the per-hop
// decisions. A fault schedule turns the run into an online
// fault-tolerance experiment: faults arrive (and possibly recover)
// mid-run, routing state is rebuilt incrementally, and affected packets
// are handled by the configured policy.
func (n *Network) SimulateTraffic(opts TrafficOptions) (TrafficStats, error) {
	if err := opts.Validate(); err != nil {
		return TrafficStats{}, err
	}
	md, err := n.modelFor(opts.Model, 1)
	if err != nil {
		return TrafficStats{}, err
	}
	blocked := md.Blocked

	routingFor := func(blocked []bool) (traffic.RoutingFunc, error) {
		switch opts.Routing {
		case WuProtocol:
			return traffic.WuRouting(route.NewRouter(n.m, blocked)), nil
		case OracleRouter:
			return traffic.OracleRouting(n.m, blocked), nil
		case XYRouter:
			return traffic.XYRouting(n.m, blocked), nil
		default:
			return nil, fmt.Errorf("extmesh: unknown routing kind %d", opts.Routing)
		}
	}
	fn, err := routingFor(blocked)
	if err != nil {
		return TrafficStats{}, err
	}

	var on *traffic.Online
	if opts.online() {
		spec := opts.FaultSchedule
		if opts.FaultRate > 0 {
			spec = fmt.Sprintf("random:rate=%g", opts.FaultRate)
		}
		seed := opts.FaultSeed
		if seed == 0 {
			seed = opts.Seed + 1
		}
		sched, err := inject.Parse(n.m, opts.Warmup+opts.Cycles, seed, spec, math.MaxInt)
		if err != nil {
			return TrafficStats{}, err
		}
		on = &traffic.Online{
			InitialFaults: n.Faults(),
			Schedule:      sched,
			Policy:        opts.FaultPolicy,
			Rebuild: func(blocked []bool) traffic.RoutingFunc {
				fn, _ := routingFor(blocked)
				return fn
			},
		}
	}

	cfg := traffic.Config{
		M:              n.m,
		Blocked:        blocked,
		Route:          fn,
		InjectionRate:  opts.InjectionRate,
		Cycles:         opts.Cycles,
		Warmup:         opts.Warmup,
		Seed:           opts.Seed,
		GuaranteedOnly: opts.GuaranteedOnly,
		QueueCapacity:  opts.QueueCapacity,
		ClassChannels:  opts.ClassChannels,
	}
	var st traffic.Stats
	var ost traffic.OnlineStats
	if on != nil {
		st, ost, err = traffic.RunOnline(cfg, on)
	} else {
		st, err = traffic.Run(cfg)
	}
	if err != nil {
		return TrafficStats{}, err
	}
	return mergeStats(TrafficStats{
		Injected:      st.Injected,
		Delivered:     st.Delivered,
		Undeliverable: st.Undeliverable,
		Deadlocked:    st.Deadlocked,
		AvgLatency:    st.AvgLatency,
		AvgStretch:    st.AvgStretch,
		Throughput:    st.Throughput,
	}, on != nil, ost), nil
}

// mergeStats folds the online counters into the unified stats.
func mergeStats(ts TrafficStats, online bool, ost traffic.OnlineStats) TrafficStats {
	if !online {
		return ts
	}
	ts.FaultEvents = ost.Events
	ts.Rerouted = ost.Rerouted
	ts.Degraded = ost.Degraded
	ts.Dropped = ost.Dropped()
	ts.StretchHist = ost.StretchHist
	return ts
}
