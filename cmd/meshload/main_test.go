package main

import (
	"strings"
	"testing"
)

func TestRunTable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "12", "-k", "6", "-cycles", "60", "-warmup", "20", "-rates", "0.02,0.1"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"wu", "oracle", "xy", "latency", "12x12 mesh with 6 faults"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Three routers x two rates = 6 data lines + header + comment.
	lines := strings.Count(strings.TrimSpace(out), "\n")
	if lines != 7 {
		t.Errorf("expected 8 lines, got %d:\n%s", lines+1, out)
	}
}

func TestRunWithCapacity(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "10", "-k", "4", "-cycles", "80", "-warmup", "20",
		"-rates", "0.3", "-capacity", "1"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "stranded") {
		t.Errorf("missing column header:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-rates", "abc"}, &sb); err == nil {
		t.Error("bad rate should fail")
	}
	if err := run([]string{"-n", "4", "-k", "100"}, &sb); err == nil {
		t.Error("too many faults should fail")
	}
	if err := run([]string{"-zzz"}, &sb); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestRunOnlineFaults(t *testing.T) {
	for _, policy := range []string{"reroute", "degrade", "drop"} {
		var sb strings.Builder
		err := run([]string{"-n", "12", "-k", "4", "-cycles", "80", "-warmup", "20",
			"-rates", "0.05", "-fault-schedule", "bursts:count=2,size=4,spread=1", "-policy", policy}, &sb)
		if err != nil {
			t.Fatalf("%s: run: %v", policy, err)
		}
		out := sb.String()
		for _, want := range []string{"online faults", "policy " + policy, "rerouted", "degraded", "dropped"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", policy, want, out)
			}
		}
	}
}

func TestRunOnlineFlagErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fault-rate", "0.1", "-fault-schedule", "none"}, &sb); err == nil {
		t.Error("fault-rate plus fault-schedule should fail")
	}
	if err := run([]string{"-fault-rate", "0.1", "-policy", "yolo"}, &sb); err == nil {
		t.Error("unknown policy should fail")
	}
	if err := run([]string{"-fault-schedule", "warp:rate=1"}, &sb); err == nil {
		t.Error("unknown schedule kind should fail")
	}
}

// TestRunStaticOutputUnchanged pins the static output to the exact
// shape the pre-online version printed: no extra columns, no online
// header line.
func TestRunStaticOutputUnchanged(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "12", "-k", "6", "-cycles", "60", "-warmup", "20", "-rates", "0.02"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, banned := range []string{"online", "rerouted", "events"} {
		if strings.Contains(out, banned) {
			t.Errorf("static output gained online text %q:\n%s", banned, out)
		}
	}
}
