package extmesh

import (
	"math"
	"testing"
)

func TestSimulateTrafficStoreAndForward(t *testing.T) {
	n := paperNetwork(t)
	opts := DefaultTrafficOptions()
	opts.Cycles = 150
	opts.Warmup = 30
	st, err := n.SimulateTraffic(opts)
	if err != nil {
		t.Fatalf("SimulateTraffic: %v", err)
	}
	if st.Delivered == 0 || st.Injected == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if st.Undeliverable != 0 {
		t.Errorf("guaranteed traffic dropped %d packets", st.Undeliverable)
	}
	if math.Abs(st.AvgStretch-1.0) > 1e-9 {
		t.Errorf("stretch = %v, want 1.0", st.AvgStretch)
	}
}

func TestSimulateTrafficRoutingKinds(t *testing.T) {
	n := paperNetwork(t)
	for _, kind := range []RoutingKind{WuProtocol, OracleRouter, XYRouter} {
		opts := DefaultTrafficOptions()
		opts.Routing = kind
		opts.Cycles = 100
		opts.Warmup = 20
		st, err := n.SimulateTraffic(opts)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if st.Delivered == 0 {
			t.Errorf("kind %d delivered nothing", kind)
		}
	}
	opts := DefaultTrafficOptions()
	opts.Routing = RoutingKind(99)
	if _, err := n.SimulateTraffic(opts); err == nil {
		t.Error("unknown routing kind should fail")
	}
}

func TestSimulateTrafficMCCModel(t *testing.T) {
	n := paperNetwork(t)
	opts := DefaultTrafficOptions()
	opts.Model = MCC
	opts.Cycles = 100
	opts.Warmup = 20
	st, err := n.SimulateTraffic(opts)
	if err != nil {
		t.Fatalf("SimulateTraffic MCC: %v", err)
	}
	if st.Delivered == 0 {
		t.Error("MCC traffic delivered nothing")
	}
	if _, err := n.SimulateTraffic(TrafficOptions{Model: FaultModel(9), Routing: WuProtocol, InjectionRate: 0.1, Cycles: 10}); err == nil {
		t.Error("bad model should fail")
	}
}
