package traffic

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"extmesh/internal/fault"
	"extmesh/internal/inject"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
)

// goldenFaults replicates the fault list behind goldenGrid so the
// online runtime can replay it as InitialFaults.
func goldenFaults(t *testing.T) (mesh.Mesh, []mesh.Coord, []bool) {
	t.Helper()
	m := mesh.Mesh{Width: 16, Height: 16}
	faults, err := fault.RandomFaults(m, 12, rand.New(rand.NewSource(9)), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		t.Fatal(err)
	}
	return m, faults, fault.BuildBlocks(sc).BlockedGrid()
}

// TestRunOnlineEmptyScheduleMatchesStatic is the bit-for-bit guard: an
// online run with no scheduled events must reproduce the static run
// exactly under PolicyReroute and PolicyDrop, for every golden
// configuration, because the online machinery may not perturb the RNG
// stream or the scheduling order. PolicyDegrade keeps the identical
// injection stream but rescues packets the static run strands on the
// initial faults, so it must deliver at least as many.
func TestRunOnlineEmptyScheduleMatchesStatic(t *testing.T) {
	m, faults, blocked := goldenFaults(t)
	wu := WuRouting(route.NewRouter(m, blocked))
	var free []mesh.Coord
	for i := 0; i < m.Size(); i++ {
		if !blocked[i] {
			free = append(free, m.CoordOf(i))
		}
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"wu_unbounded", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.05, Cycles: 120, Warmup: 30, Seed: 1}},
		{"wu_capacity2", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.10, Cycles: 120, Warmup: 30, Seed: 2, QueueCapacity: 2}},
		{"wu_class_cap1", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.10, Cycles: 120, Warmup: 30, Seed: 3, QueueCapacity: 1, ClassChannels: true}},
		{"wu_hotspot", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.08, Cycles: 120, Warmup: 30, Seed: 4, HotspotFraction: 0.3, Hotspot: mesh.Coord{X: 1, Y: 1}}},
		{"wu_guaranteed", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.08, Cycles: 120, Warmup: 30, Seed: 5, GuaranteedOnly: true}},
		{"oracle", Config{M: m, Blocked: blocked, Route: OracleRouting(m, blocked), InjectionRate: 0.08, Cycles: 120, Warmup: 30, Seed: 6}},
		{"xy", Config{M: m, Blocked: blocked, Route: XYRouting(m, blocked), InjectionRate: 0.08, Cycles: 120, Warmup: 30, Seed: 7}},
		{"preload", Config{M: m, Blocked: blocked, Route: wu, InjectionRate: 0.02, Cycles: 80, Warmup: 0, Seed: 8,
			Preload: []Flow{
				{Src: free[0], Dst: free[len(free)-1]},
				{Src: free[len(free)-1], Dst: free[1]},
			}}},
	}
	for _, c := range configs {
		want, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: static run: %v", c.name, err)
		}
		for _, p := range []Policy{PolicyReroute, PolicyDegrade, PolicyDrop} {
			got, ost, err := RunOnline(c.cfg, &Online{InitialFaults: faults, Policy: p})
			if err != nil {
				t.Fatalf("%s/%v: online run: %v", c.name, p, err)
			}
			if p == PolicyDegrade {
				// Same injection stream (rescued packets occupy
				// different queues, so the accepted/rejected split may
				// shift, but the attempts are identical), and strictly
				// better delivery.
				if got.Injected+got.Rejected != want.Injected+want.Rejected {
					t.Errorf("%s/%v: injection stream perturbed: %d attempts, static %d",
						c.name, p, got.Injected+got.Rejected, want.Injected+want.Rejected)
				}
				if got.Delivered < want.Delivered || got.Undeliverable > want.Undeliverable {
					t.Errorf("%s/%v: degrade delivered %d (stranded %d), static %d (%d); degrade must not do worse",
						c.name, p, got.Delivered, got.Undeliverable, want.Delivered, want.Undeliverable)
				}
				if want.Undeliverable > 0 && ost.Degraded == 0 {
					t.Errorf("%s/%v: static run strands %d packets but degrade took no detours", c.name, p, want.Undeliverable)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v: online stats diverged from static run\n got: %+v\nwant: %+v", c.name, p, got, want)
			}
			if ost.Events != 0 || ost.Rebuilds != 0 || ost.Rerouted != 0 {
				t.Errorf("%s/%v: zero-event run reported fault activity: %+v", c.name, p, ost)
			}
			if p != PolicyDegrade && (ost.Dropped() != 0 || ost.Degraded != 0) {
				t.Errorf("%s/%v: minimal policy dropped or degraded packets with no events: %+v", c.name, p, ost)
			}
			if ost.DeliveredTotal < got.Delivered {
				t.Errorf("%s/%v: total ledger delivered %d < measured %d", c.name, p, ost.DeliveredTotal, got.Delivered)
			}
		}
	}
}

// TestRunOnlinePolicies pins the three policies against a surgically
// placed fault. A single packet is preloaded from (0,0) to (7,0) on a
// fault-free 8x8 mesh; at the start of cycle 2 it sits queued on the
// link (2,0)->(3,0), and exactly then (3,0) dies. The only minimal
// path runs along row 0, so minimal rerouting is stuck: reroute drops
// the packet with a reason code, degrade detours through (2,1) and
// delivers it in D+2 hops, drop discards it.
func TestRunOnlinePolicies(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 7, Y: 0}
	base := Config{
		M:       m,
		Blocked: make([]bool, m.Size()),
		Route:   WuRouting(route.NewRouter(m, make([]bool, m.Size()))),
		Cycles:  40,
		Seed:    1,
		Preload: []Flow{{Src: src, Dst: dst}},
	}
	sched, err := inject.Parse(m, 40, 1, "fail@2:3,0", 1)
	if err != nil {
		t.Fatal(err)
	}
	online := func(p Policy) *Online {
		return &Online{
			Schedule: sched,
			Policy:   p,
			Rebuild: func(b []bool) RoutingFunc {
				return WuRouting(route.NewRouter(m, b))
			},
		}
	}

	t.Run("reroute", func(t *testing.T) {
		st, ost, err := RunOnline(base, online(PolicyReroute))
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered != 0 || ost.DroppedNoRoute != 1 || ost.Dropped() != 1 {
			t.Errorf("reroute: delivered %d, stats %+v; want the packet dropped with no route", st.Delivered, ost)
		}
	})
	t.Run("degrade", func(t *testing.T) {
		cfg := base
		var hops, detours int
		cfg.OnDeliver = func(s, d mesh.Coord, h, k int) {
			if s != src || d != dst {
				t.Errorf("delivered unexpected packet %v->%v", s, d)
			}
			hops, detours = h, k
		}
		st, ost, err := RunOnline(cfg, online(PolicyDegrade))
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered != 1 || ost.Dropped() != 0 {
			t.Fatalf("degrade: delivered %d, stats %+v; want the packet delivered", st.Delivered, ost)
		}
		// Theorem 1a: each Extension-1 detour costs exactly two hops.
		if detours != 1 || hops != mesh.Distance(src, dst)+2*detours {
			t.Errorf("degrade: %d hops with %d detours, want D+2k = %d", hops, detours, mesh.Distance(src, dst)+2)
		}
		if ost.Rerouted != 1 || ost.Degraded != 1 || ost.DetourHops != 1 {
			t.Errorf("degrade: counters %+v; want 1 reroute, 1 degraded packet, 1 detour hop", ost)
		}
		// One detour lands in the second stretch bucket: 9/7 ~ 1.29.
		if ost.StretchHist[1] != 1 {
			t.Errorf("degrade: stretch histogram %v; want the packet in bucket 1", ost.StretchHist)
		}
	})
	t.Run("drop", func(t *testing.T) {
		st, ost, err := RunOnline(base, online(PolicyDrop))
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered != 0 || ost.DroppedPolicy != 1 || ost.Dropped() != 1 {
			t.Errorf("drop: delivered %d, stats %+v; want the packet discarded by policy", st.Delivered, ost)
		}
	})
}

// TestRunOnlinePathStretchProperty checks the path-length invariant on
// a busy online run: every delivered packet's hop count equals its
// Manhattan distance plus exactly two hops per detour, and minimal
// policies take no detours at all.
func TestRunOnlinePathStretchProperty(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	faults := []mesh.Coord{{X: 3, Y: 3}, {X: 3, Y: 4}, {X: 8, Y: 8}}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		t.Fatal(err)
	}
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	sched, err := inject.Transient(m, 300, 0.05, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule, pick another seed")
	}
	for _, p := range []Policy{PolicyReroute, PolicyDegrade} {
		delivered := 0
		cfg := Config{
			M:              m,
			Blocked:        blocked,
			Route:          WuRouting(route.NewRouter(m, blocked)),
			InjectionRate:  0.08,
			Cycles:         250,
			Warmup:         50,
			Seed:           2,
			GuaranteedOnly: true,
			OnDeliver: func(src, dst mesh.Coord, hops, detours int) {
				delivered++
				if want := mesh.Distance(src, dst) + 2*detours; hops != want {
					t.Errorf("%v: packet %v->%v took %d hops with %d detours, want %d", p, src, dst, hops, detours, want)
				}
				if p == PolicyReroute && detours != 0 {
					t.Errorf("reroute: packet %v->%v took %d detours under a minimal-only policy", src, dst, detours)
				}
			},
		}
		st, ost, err := RunOnline(cfg, &Online{
			InitialFaults: faults,
			Schedule:      sched,
			Policy:        p,
			Rebuild: func(b []bool) RoutingFunc {
				return WuRouting(route.NewRouter(m, b))
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if ost.Events == 0 {
			t.Fatalf("%v: no fault events fired", p)
		}
		if delivered == 0 || delivered != ost.DeliveredTotal {
			t.Errorf("%v: OnDeliver saw %d packets, ledger says %d", p, delivered, ost.DeliveredTotal)
		}
		// Re-check conservation externally against the same ledger the
		// simulator enforces internally.
		if got := ost.DeliveredTotal + ost.StuckTotal + ost.Dropped() + st.InFlight; got != ost.Spawned {
			t.Errorf("%v: conservation: %d spawned, %d accounted (%+v)", p, ost.Spawned, got, ost)
		}
	}
}

// pingPongRoute bounces any packet between (0,0) and (1,0) forever — a
// deliberately broken routing function for exercising the guards.
func pingPongRoute(u, d mesh.Coord) (mesh.Coord, error) {
	if u == (mesh.Coord{X: 0, Y: 0}) {
		return mesh.Coord{X: 1, Y: 0}, nil
	}
	return mesh.Coord{X: 0, Y: 0}, nil
}

func TestRunLivelockGuard(t *testing.T) {
	m := mesh.Mesh{Width: 6, Height: 6}
	cfg := Config{
		M:         m,
		Blocked:   make([]bool, m.Size()),
		Route:     pingPongRoute,
		Cycles:    100,
		Seed:      1,
		HopBudget: 10,
		Preload:   []Flow{{Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 3, Y: 3}}},
	}

	// Static run: a circulating packet is a simulator (or routing) bug
	// and aborts the run.
	_, err := Run(cfg)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != InvariantLivelock {
		t.Fatalf("static livelock: got %v, want a %v SimError", err, InvariantLivelock)
	}
	if se.Sim != "traffic" || se.Error() == "" {
		t.Errorf("malformed SimError: %+v", se)
	}

	// Online run: livelock is a legal degradation outcome; the packet
	// is dropped and the ledger still balances.
	st, ost, err := RunOnline(cfg, &Online{})
	if err != nil {
		t.Fatalf("online livelock: %v", err)
	}
	if ost.DroppedLivelock != 1 || st.Delivered != 0 {
		t.Errorf("online livelock: %+v; want one livelock drop", ost)
	}
	if got := ost.DeliveredTotal + ost.StuckTotal + ost.Dropped() + st.InFlight; got != ost.Spawned {
		t.Errorf("conservation after livelock drop: %d spawned, %d accounted", ost.Spawned, got)
	}
}

func TestRunStallGuard(t *testing.T) {
	m := mesh.Mesh{Width: 6, Height: 6}
	dst := mesh.Coord{X: 3, Y: 3}
	cfg := Config{
		M:             m,
		Blocked:       make([]bool, m.Size()),
		Route:         pingPongRoute,
		Cycles:        50,
		Seed:          1,
		QueueCapacity: 1,
		ClassChannels: true,
		// Two same-class packets each hold the capacity-1 channel the
		// other needs: instant mutual backpressure. Class channels
		// with minimal routing cannot do this, so the guard must call
		// it a simulator bug, not a deadlock.
		Preload: []Flow{
			{Src: mesh.Coord{X: 0, Y: 0}, Dst: dst},
			{Src: mesh.Coord{X: 1, Y: 0}, Dst: dst},
		},
	}
	_, err := Run(cfg)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != InvariantStall {
		t.Fatalf("stall guard: got %v, want a %v SimError", err, InvariantStall)
	}

	// The same pattern without class channels is an honest deadlock
	// report, not an invariant violation.
	cfg.ClassChannels = false
	st, err := Run(cfg)
	if err != nil || !st.Deadlocked {
		t.Errorf("plain finite-buffer stall: err %v, deadlocked %v; want a Deadlocked report", err, st.Deadlocked)
	}
}

// TestRunOnlineErrors covers the online-specific configuration errors.
func TestRunOnlineErrors(t *testing.T) {
	m := mesh.Mesh{Width: 6, Height: 6}
	blocked := make([]bool, m.Size())
	cfg := Config{M: m, Blocked: blocked, Route: pingPongRoute, InjectionRate: 0.01, Cycles: 10, Seed: 1}

	if _, _, err := RunOnline(cfg, &Online{Policy: Policy(9)}); err == nil {
		t.Error("invalid policy should fail")
	}
	sched := inject.Schedule{{Cycle: 1, Node: mesh.Coord{X: 2, Y: 2}, Op: inject.Fail}}
	if _, _, err := RunOnline(cfg, &Online{Schedule: sched}); err == nil {
		t.Error("schedule without Rebuild should fail")
	}
	if _, _, err := RunOnline(cfg, &Online{InitialFaults: []mesh.Coord{{X: 2, Y: 2}}}); err == nil {
		t.Error("initial faults that do not reproduce the blocked grid should fail")
	}
	if cfg.HopBudget = -1; true {
		if _, _, err := RunOnline(cfg, nil); err == nil {
			t.Error("negative hop budget should fail")
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{
		{PolicyReroute, "reroute"}, {PolicyDegrade, "degrade"}, {PolicyDrop, "drop"}, {Policy(0), "invalid"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("Policy(%d).String() = %q, want %q", c.p, got, c.want)
		}
		if c.want == "invalid" {
			continue
		}
		p, err := ParsePolicy(c.want)
		if err != nil || p != c.p {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.want, p, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("unknown policy name should fail")
	}
	_ = fmt.Sprintf("%v", PolicyReroute)
}
