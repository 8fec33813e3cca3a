package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunProducesValidJSON runs the tool on a small mesh with a short
// benchtime and checks the emitted document parses and covers every
// measured operation.
func TestRunProducesValidJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{
		"-w", "24", "-h", "24", "-k", "6,12", "-dests", "16",
		"-benchtime", "2ms", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if rep.Tool != "meshbench" || rep.MeshWidth != 24 || rep.MeshHeight != 24 {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Scenarios) != 2 || rep.Scenarios[0].Faults != 6 || rep.Scenarios[1].Faults != 12 {
		t.Fatalf("scenarios wrong: %+v", rep.Scenarios)
	}
	want := map[string]bool{
		"scenario_setup/fresh":                false,
		"scenario_setup/arena":                false,
		"condition_eval/extension2":           false,
		"condition_eval/strategy1":            false,
		"has_minimal_path/single":             false,
		"has_minimal_path/cached":             false,
		"has_minimal_path/batch":              false,
		"reach_bitset/bool_sweep":             false,
		"reach_bitset/bitset":                 false,
		"reach_bitset/from_bools":             false,
		"ensure/single":                       false,
		"ensure/batch":                        false,
		"route/single":                        false,
		"route/batch":                         false,
		"oracle_route/uncached":               false,
		"oracle_route/cached":                 false,
		"serve/route_single":                  false,
		"serve/route_batch":                   false,
		"serve/has_minimal_path_batch":        false,
		"serve_binary/route_single":           false,
		"serve_binary/route_batch":            false,
		"serve_binary/has_minimal_path_batch": false,
		"route_kernel/next_hop":               false,
		"route_kernel/route_into":             false,
		"route_kernel/route_uniform":          false,
		"route_kernel/batch_into":             false,
		"route_kernel/oracle_into":            false,
		"route_kernel/view_build":             false,
	}
	for _, sc := range rep.Scenarios {
		for name := range want {
			want[name] = false
		}
		for _, r := range sc.Results {
			if _, ok := want[r.Name]; !ok {
				t.Fatalf("unexpected result %q", r.Name)
			}
			want[r.Name] = true
			if r.NsPerOp <= 0 || r.QueriesPerOp <= 0 || r.QueriesPerSec <= 0 {
				t.Fatalf("%s: non-positive measurement %+v", r.Name, r)
			}
			if r.AllocsPerOp < 0 || r.BytesPerOp < 0 {
				t.Fatalf("%s: negative alloc stats %+v", r.Name, r)
			}
		}
		for name, seen := range want {
			if !seen {
				t.Fatalf("faults=%d: missing result %q", sc.Faults, name)
			}
		}
	}

	wantRel := map[string]bool{
		"reliability/sweep_64x64":   false,
		"reliability/sweep_full":    false,
		"reliability/analytic_thm2": false,
	}
	for _, r := range rep.Reliability {
		if _, ok := wantRel[r.Name]; !ok {
			t.Fatalf("unexpected reliability result %q", r.Name)
		}
		wantRel[r.Name] = true
		if r.NsPerOp <= 0 || r.QueriesPerOp <= 0 || r.QueriesPerSec <= 0 {
			t.Fatalf("%s: non-positive measurement %+v", r.Name, r)
		}
	}
	for name, seen := range wantRel {
		if !seen {
			t.Fatalf("missing reliability result %q", name)
		}
	}
}

// TestRunRejectsBadFaultList pins the flag validation.
func TestRunRejectsBadFaultList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-k", "10,frog"}, &buf); err == nil {
		t.Fatal("expected error for non-numeric fault count")
	}
	if err := run([]string{"-k", "-3"}, &buf); err == nil {
		t.Fatal("expected error for negative fault count")
	}
}

func diffReport(mw, mh int, qps map[string]float64) Report {
	rep := Report{MeshWidth: mw, MeshHeight: mh}
	sc := Scenario{Faults: 10}
	for name, q := range qps {
		sc.Results = append(sc.Results, Result{Name: name, QueriesPerSec: q})
	}
	rep.Scenarios = []Scenario{sc}
	return rep
}

// TestDiffBaseline pins the regression gate: within tolerance passes,
// beyond tolerance fails and names the row, one-sided measurements are
// informational, and mismatched mesh dimensions refuse to compare.
func TestDiffBaseline(t *testing.T) {
	dir := t.TempDir()
	writeBase := func(name string, rep Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := writeBase("base.json", diffReport(40, 40, map[string]float64{
		"route/batch":  100000,
		"route/single": 5000,
		"gone/only":    777,
	}))

	var buf bytes.Buffer
	cur := diffReport(40, 40, map[string]float64{
		"route/batch":  95000, // -5%: inside a 10% tolerance
		"route/single": 6000,
		"new/only":     123,
	})
	if err := diffBaseline(&buf, cur, base, 10); err != nil {
		t.Fatalf("within-tolerance diff failed: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"new/only", "gone/only", "no regressions"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("diff output missing %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	cur = diffReport(40, 40, map[string]float64{
		"route/batch":  50000, // -50%: regression
		"route/single": 5000,
	})
	err := diffBaseline(&buf, cur, base, 10)
	if err == nil {
		t.Fatalf("50%% drop passed a 10%% tolerance:\n%s", buf.String())
	}
	if !bytes.Contains([]byte(err.Error()), []byte("route/batch")) {
		t.Fatalf("regression error does not name the row: %v", err)
	}

	buf.Reset()
	if err := diffBaseline(&buf, diffReport(30, 30, nil), base, 10); err == nil {
		t.Fatal("mismatched mesh dimensions compared anyway")
	}
	if err := diffBaseline(&buf, cur, filepath.Join(dir, "missing.json"), 10); err == nil {
		t.Fatal("missing baseline file compared anyway")
	}
}

// TestRunSelfBaseline pins the -baseline verdicts on a real report
// diffed against synthetic baselines derived from it, so no verdict
// depends on how two wall-clock runs happen to compare (the real
// two-run self-diff is make bench-smoke's job). One run measures every
// section with -baseline naming a baseline of other mesh dimensions:
// the report is still written, and the diff is refused. The written
// report then passes against a baseline every row of which sits within
// tolerance above it, and fails, naming the row, against one where a
// single row sits beyond tolerance.
func TestRunSelfBaseline(t *testing.T) {
	dir := t.TempDir()
	writeBase := func(name string, rep Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mismatched := writeBase("mismatched.json", diffReport(30, 30, map[string]float64{"route/batch": 1}))

	first := filepath.Join(dir, "first.json")
	var buf bytes.Buffer
	args := []string{"-w", "24", "-h", "24", "-k", "8", "-dests", "16", "-benchtime", "2ms",
		"-out", first, "-baseline", mismatched}
	err := run(args, &buf)
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("run against a 30x30 baseline: err = %v, want a refusal\n%s", err, buf.String())
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("report not written before the diff: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 || len(rep.Journal) == 0 || len(rep.Reliability) == 0 {
		t.Fatalf("report lacks a section: %d scenarios, %d journal rows, %d reliability rows",
			len(rep.Scenarios), len(rep.Journal), len(rep.Reliability))
	}

	// scaled copies rep with every row's q/s multiplied by f, and the
	// named row's (if any) by g instead.
	scaled := func(f float64, row string, g float64) Report {
		base := rep
		scale := func(rs []Result) []Result {
			out := append([]Result(nil), rs...)
			for i := range out {
				if out[i].Name == row {
					out[i].QueriesPerSec *= g
				} else {
					out[i].QueriesPerSec *= f
				}
			}
			return out
		}
		base.Scenarios = []Scenario{{Faults: rep.Scenarios[0].Faults, Results: scale(rep.Scenarios[0].Results)}}
		base.Journal = scale(rep.Journal)
		base.Reliability = scale(rep.Reliability)
		return base
	}

	// Every row 5% below its baseline: inside a 10% tolerance.
	buf.Reset()
	within := writeBase("within.json", scaled(1/0.95, "", 0))
	if err := diffBaseline(&buf, rep, within, 10); err != nil {
		t.Fatalf("rows 5%% down failed a 10%% tolerance: %v\n%s", err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("no regressions beyond 10%")) {
		t.Fatalf("diff output missing the verdict:\n%s", buf.String())
	}

	// One row 50% below its baseline, the rest unchanged.
	buf.Reset()
	beyond := writeBase("beyond.json", scaled(1, "route_kernel/route_into", 2))
	err = diffBaseline(&buf, rep, beyond, 10)
	if err == nil {
		t.Fatalf("a row 50%% down passed a 10%% tolerance:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "1 measurement(s)") || !strings.Contains(err.Error(), "route_kernel/route_into") {
		t.Fatalf("regression error does not name exactly the one row: %v", err)
	}
}
