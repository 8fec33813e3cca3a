package extmesh

import (
	"strings"
	"testing"
)

func TestTrafficOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TrafficOptions)
		frag   string // expected error fragment; "" means valid
	}{
		{"defaults", func(o *TrafficOptions) {}, ""},
		{"negative_rate", func(o *TrafficOptions) { o.InjectionRate = -0.1 }, "injection rate"},
		{"rate_above_one", func(o *TrafficOptions) { o.InjectionRate = 1.5 }, "injection rate"},
		{"zero_cycles", func(o *TrafficOptions) { o.Cycles = 0 }, "cycles"},
		{"negative_cycles", func(o *TrafficOptions) { o.Cycles = -5 }, "cycles"},
		{"negative_warmup", func(o *TrafficOptions) { o.Warmup = -1 }, "warmup"},
		{"warmup_swallows_cycles", func(o *TrafficOptions) { o.Warmup = o.Cycles }, "no cycle is measured"},
		{"negative_capacity", func(o *TrafficOptions) { o.QueueCapacity = -2 }, "queue capacity"},
		{"negative_fault_rate", func(o *TrafficOptions) { o.FaultRate = -0.5 }, "fault rate"},
		{"rate_and_schedule", func(o *TrafficOptions) { o.FaultRate = 0.1; o.FaultSchedule = "none" }, "mutually exclusive"},
		{"online_needs_blocks", func(o *TrafficOptions) { o.Model = MCC; o.FaultRate = 0.1 }, "Blocks model"},
		{"bad_policy", func(o *TrafficOptions) { o.FaultRate = 0.1; o.FaultPolicy = FaultPolicy(9) }, "policy"},
	}
	for _, c := range cases {
		opts := DefaultTrafficOptions()
		c.mutate(&opts)
		err := opts.Validate()
		if c.frag == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.frag)
		}
	}
}

// TestSimulateTrafficOnline runs the public online fault-injection API
// end to end for every policy.
func TestSimulateTrafficOnline(t *testing.T) {
	n := paperNetwork(t)
	for _, p := range []FaultPolicy{RerouteFaults, DegradeFaults, DropFaults} {
		opts := DefaultTrafficOptions()
		opts.Cycles = 150
		opts.Warmup = 30
		opts.FaultSchedule = "transient:rate=0.05,repair=30"
		opts.FaultPolicy = p
		st, err := n.SimulateTraffic(opts)
		if err != nil {
			t.Fatalf("policy=%v: %v", p, err)
		}
		if st.FaultEvents == 0 {
			t.Errorf("policy=%v: no fault events fired", p)
		}
		if st.Delivered == 0 {
			t.Errorf("policy=%v: nothing delivered", p)
		}
		total := 0
		for _, b := range st.StretchHist {
			total += b
		}
		if total == 0 {
			t.Errorf("policy=%v: empty stretch histogram", p)
		}
	}
}

// TestSimulateTrafficOnlineZeroEventsMatchesStatic checks the public
// API's equivalence guarantee: an explicit empty schedule changes
// nothing relative to a plain static run.
func TestSimulateTrafficOnlineZeroEventsMatchesStatic(t *testing.T) {
	n := paperNetwork(t)
	opts := DefaultTrafficOptions()
	opts.Cycles = 150
	opts.Warmup = 30
	want, err := n.SimulateTraffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.FaultSchedule = "none"
	got, err := n.SimulateTraffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Injected != want.Injected || got.Delivered != want.Delivered ||
		got.Undeliverable != want.Undeliverable || got.AvgLatency != want.AvgLatency {
		t.Errorf("zero-event online run diverged from static:\n got: %+v\nwant: %+v", got, want)
	}
	if got.FaultEvents != 0 || got.Dropped != 0 || got.Rerouted != 0 {
		t.Errorf("zero-event run reported fault activity: %+v", got)
	}
}

func TestSimulateTrafficOnlineBadSchedule(t *testing.T) {
	n := paperNetwork(t)
	opts := DefaultTrafficOptions()
	opts.FaultSchedule = "warp:rate=0.1"
	if _, err := n.SimulateTraffic(opts); err == nil {
		t.Error("unknown schedule kind should fail")
	}
}
