package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestRunAllFigures(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "40", "-configs", "2", "-dests", "5", "-maxfaults", "20", "-step", "10"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, id := range []string{"fig7", "fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b"} {
		if !strings.Contains(out, id+" —") {
			t.Errorf("output missing table %s", id)
		}
	}
	if !strings.Contains(out, "40x40 mesh") {
		t.Error("output missing header")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "40", "-configs", "2", "-dests", "5", "-maxfaults", "10", "-step", "10", "-exp", "fig9"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "fig9a —") || !strings.Contains(out, "fig9b —") {
		t.Error("fig9 panels missing")
	}
	if strings.Contains(out, "fig10a —") {
		t.Error("unexpected figure in filtered output")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	// An unknown experiment must fail fast — before the simulation runs
	// — and name the known ids.
	err := run([]string{"-exp", "nope", "-n", "200", "-configs", "20", "-dests", "50", "-maxfaults", "200", "-step", "10"}, &sb)
	if err == nil {
		t.Error("unknown experiment should fail")
	} else if !strings.Contains(err.Error(), "fig12b") || !strings.Contains(err.Error(), "lineagea") {
		t.Errorf("unknown-experiment error should list known ids, got: %v", err)
	}
	if sb.Len() != 0 {
		t.Error("unknown experiment must be rejected before any output")
	}
	if err := run([]string{"-n", "2"}, &sb); err == nil {
		t.Error("invalid config should fail")
	}
	if err := run([]string{"-bogusflag"}, &sb); err == nil {
		t.Error("bad flag should fail")
	}
}

// TestRunTimingFlag checks the -timing stage breakdown line.
func TestRunTimingFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "40", "-configs", "2", "-dests", "5", "-maxfaults", "10", "-step", "10", "-exp", "fig7", "-timing"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "# stage breakdown (worker time): setup ") {
		t.Errorf("timing breakdown missing:\n%s", sb.String())
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "40", "-configs", "1", "-dests", "3", "-maxfaults", "10", "-step", "10", "-json", "-exp", "fig7"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `"id": "fig7"`) {
		t.Errorf("JSON output missing table id:\n%s", out)
	}
	if strings.Contains(out, "—") {
		t.Error("JSON output contains table formatting")
	}
}

func TestRunScalingSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scaling", "-configs", "2", "-dests", "5"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "scaling — scalability at 0.50% fault density") {
		t.Errorf("scaling table missing:\n%s", out)
	}
	if !strings.Contains(out, "     300") {
		t.Errorf("largest mesh row missing:\n%s", out)
	}
}

// stripTiming removes the wall-clock "(12.3s)" that the header line of
// a figure run ends with; everything else in a run is deterministic.
var stripTiming = regexp.MustCompile(`(?m) \([0-9.]+s\)$`)

// TestPaperTableUnchanged regenerates the committed paper-scale table
// (uniform faults on 200x200, EXPERIMENTS.md's recipe) and requires it
// byte for byte, so a change to any condition, the fault model or the
// seeding shows up as a diff. `make paper` checks the clustered and
// scaling tables the same way.
func TestPaperTableUnchanged(t *testing.T) {
	want, err := os.ReadFile("../../docs/results-200x200.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-configs", "30", "-dests", "60"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := stripTiming.ReplaceAllString(sb.String(), "")
	if w := stripTiming.ReplaceAllString(string(want), ""); got != w {
		gl, wl := strings.Split(got, "\n"), strings.Split(w, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("docs/results-200x200.txt differs at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("docs/results-200x200.txt has %d lines, the run %d", len(wl), len(gl))
	}
}
