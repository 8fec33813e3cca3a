// Command perfbench is the end-to-end benchmark of the routing service.
// It starts the real serve.Server in-process on loopback listeners,
// drives it through the public meshclient clients, checks every answer
// against the library, and prints each metric by name and unit. With
// -trace 1 it instead measures the per-layer metrics: a traced load
// phase, a replay of sampled requests through the four layer
// boundaries, and direct timings of each layer's public functions.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload route_batch_binary -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 11

var workloadNames = []string{"route_batch_binary", "query_mix_json", "churn_cluster", "survivability_sweep"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "route_batch_binary":
		return newRouteBatch(cfg)
	case "query_mix_json":
		return newQueryMix(cfg)
	case "churn_cluster":
		return newChurn(cfg)
	case "survivability_sweep":
		return newSweep(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, workloadNames)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics in a traced run")
	fs.StringVar(&cfg.Workdir, "workdir", ".bench_build", "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	cfg.Trace = trace == 1
	cfg.Clients = min(2, runtime.NumCPU())
	if err := os.MkdirAll(filepath.Join(cfg.Workdir, "tmp"), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d clients=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.Clients)

	w, setups, err := setUp(cfg)
	if err != nil {
		return err
	}
	defer w.close()
	var res *result
	if cfg.Trace {
		res, err = traced(cfg, w, out)
	} else {
		res, err = timed(cfg, w, setups, out)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// setUp builds and sets the workload up setupReps times, tearing down
// all but the last, and returns the last with every setup's duration.
func setUp(cfg config) (workload, []time.Duration, error) {
	var times []time.Duration
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		err = w.setup()
		times = append(times, time.Since(t0))
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	return w, times, nil
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// timed measures the end-to-end metrics.
func timed(cfg config, w workload, setups []time.Duration, out io.Writer) (*result, error) {
	before := w.counters()
	lr, err := w.run(deadline(cfg.Seconds), nil)
	if err != nil {
		return nil, err
	}
	after := w.counters()
	fmt.Fprintf(out, "# server counters over the window: http_queued_total %d, http_shed_total %d, journal_appends_total %d, journal_fsyncs_total %d, reach_cache_hits_total %d, reach_cache_misses_total %d, server latency histogram mean %.1fus (n=%d)\n",
		after.Queued-before.Queued, after.Shed-before.Shed, after.Appends-before.Appends, after.Fsyncs-before.Fsyncs,
		after.ReachHits-before.ReachHits, after.Misses-before.Misses,
		us(after.ServerLatSum-before.ServerLatSum)/float64(max(after.ServerLatN-before.ServerLatN, 1)), after.ServerLatN-before.ServerLatN)
	checkErr := w.check()
	tail, used, total, perInterval := intervalTail(lr.Lat, lr.LatAt, lr.TailQ)
	lat, err := summarize(lr.Lat, lr.TailQ)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	tailNote := fmt.Sprintf("whole-run %s, n=%d, %d+ beyond (too few samples per %v interval)", tailName(lat.TailQ), lat.N, minBeyond, sampleEvery)
	if perInterval {
		tailNote = fmt.Sprintf("median over %d of %d %v intervals of each one's %s (each with %d+ samples beyond); whole run: %.1fus, n=%d",
			used, total, sampleEvery, tailName(lat.TailQ), minBeyond, us(lat.Tail), lat.N)
	} else {
		tail = lat.Tail
	}
	elapsed := lr.Win.Elapsed.Seconds()
	setup := medianDur(append([]time.Duration(nil), setups...))
	res := &result{Correct: checkErr == nil, Attempted: lr.Attempted, Failed: lr.Failed, Metrics: map[string]metric{}}
	add := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		printLine(out, resultLine{Name: name, Value: v, Unit: unit, Note: note})
	}
	add("setup_s", setup.Seconds(), "s", fmt.Sprintf("median of %d: %v", len(setups), setups))
	qps, cpuPerOp := intervalRates(lr.Win.Ticks)
	intervals := fmt.Sprintf("median of %d %v intervals", len(lr.Win.Ticks)-1, sampleEvery)
	add("throughput_qps", qps, "1/s", fmt.Sprintf("%s; whole run: %d queries in %.2fs", intervals, lr.Queries, elapsed))
	add("latency_p50_us", us(lat.P50), "us", fmt.Sprintf("n=%d", lat.N))
	add("latency_tail_us", us(tail), "us", tailNote)
	add("cpu_us_per_op", cpuPerOp, "us", fmt.Sprintf("%s; whole run: user+sys %v over %d ops", intervals, lr.Win.CPU.Round(time.Millisecond), lr.Ops))
	add("peak_rss_mb", peakRSSMB(), "MB", "")
	printLine(out, resultLine{Name: "latency_" + tailName(lat.TailQ) + "_us", Value: us(lat.Tail), Unit: "us", Note: fmt.Sprintf("whole run, n=%d", lat.N)})
	printLine(out, resultLine{Name: "failed_frac", Value: float64(lr.Failed) / float64(max(lr.Attempted, 1)), Unit: "ratio",
		Note: fmt.Sprintf("%d of %d attempted (%d timeouts)", lr.Failed, lr.Attempted, lr.Timeouts)})
	for _, l := range lr.Extra {
		printLine(out, l)
	}
	if lr.FirstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", lr.FirstErr)
	}
	reportCheck(out, checkErr)
	return res, nil
}

func printLine(out io.Writer, l resultLine) {
	if l.Note != "" {
		fmt.Fprintf(out, "%-34s %14.4f %-6s # %s\n", l.Name, l.Value, l.Unit, l.Note)
	} else {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", l.Name, l.Value, l.Unit)
	}
}

func reportCheck(out io.Writer, err error) {
	if err != nil {
		fmt.Fprintf(out, "# answer check FAILED: %v\n", err)
	} else {
		fmt.Fprintln(out, "# answer check ok")
	}
}

// traced measures the per-layer metrics: an untraced and a traced load
// phase of half the run each (their throughput difference is the
// tracing overhead), the four-boundary replay and the layer probes.
func traced(cfg config, w workload, out io.Writer) (*result, error) {
	half := cfg.Seconds / 2
	before := w.counters()
	plain, err := w.run(deadline(half), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedRes, err := w.run(deadline(half), tr)
	if err != nil {
		return nil, err
	}
	after := w.counters()
	checkErr := w.check()
	tgt, err := w.target()
	if err != nil {
		return nil, err
	}
	rs, err := replay(tgt, tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	probes, err := layerProbes(tgt, cfg.Workdir, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	spans := filepath.Join(cfg.Workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans: %d written to %s (%d dropped)\n", len(tr.spans), spans, tr.dropped)

	m := probes
	qps := func(r *loadResult) float64 { return float64(r.Queries) / r.Win.Elapsed.Seconds() }
	m["bench.trace_overhead_pct"] = 100 * (qps(plain) - qps(tracedRes)) / qps(plain)

	d := func(a, b uint64) float64 { return float64(b - a) }
	attempts := d(before.Attempts, after.Attempts)
	retries := d(before.Retries, after.Retries)
	shed := d(before.ClientShed, after.ClientShed)
	if before.BinaryTransport {
		frames, calls := d(before.BinaryRequests, after.BinaryRequests), d(before.Calls, after.Calls)
		attempts += frames
		retries += max(0, frames-calls)
		shed = d(before.Shed, after.Shed)
	}
	m["meshclient.attempts"] = attempts
	m["meshclient.retries"] = retries
	m["meshclient.shed"] = shed
	m["meshclient.retry_ratio"] = retries / max(attempts, 1)
	m["meshclient.self_us"] = us(medianDur(rs.clientSelf))

	m["wire.encode_ns"] = float64(medianDur(rs.encode).Nanoseconds())
	m["wire.decode_ns"] = float64(medianDur(rs.decode).Nanoseconds())
	m["wire.resp_bytes"] = medianFloat(rs.respBytes)

	m["serve.http_self_us"] = us(medianDur(rs.httpSelf))
	m["serve.binary_self_us"] = us(medianDur(rs.binarySelf))
	clientSum := plain.ClientLatSum + tracedRes.ClientLatSum
	clientN := plain.ClientLatN + tracedRes.ClientLatN
	serverSum, serverN := after.ServerLatSum-before.ServerLatSum, after.ServerLatN-before.ServerLatN
	socketFrom := "load"
	if clientN == 0 || serverN == 0 {
		clientSum, clientN = rs.socketClient, int64(rs.socketN)
		serverSum, serverN = rs.socketServer, uint64(rs.socketN)
		socketFrom = "replay"
	}
	m["serve.socket_us"] = us(clientSum)/float64(max(clientN, 1)) - us(serverSum)/float64(max(serverN, 1))
	m["serve.queued"] = d(before.Queued, after.Queued)
	m["serve.shed"] = d(before.Shed, after.Shed)
	m["serve.repl_lag_max_records"] = float64(after.ReplLagMaxRecords)

	m["extmesh.self_us"] = us(medianDur(rs.extmeshSelf))
	m["kernel.self_us"] = us(medianDur(rs.kernel))

	hits, misses := d(before.ReachHits, after.ReachHits), d(before.Misses, after.Misses)
	m["wang.reach_hits"] = hits
	m["wang.reach_misses"] = misses
	m["wang.reach_hit_ratio"] = hits / max(hits+misses, 1)

	m["journal.appends"] = d(before.Appends, after.Appends)
	m["journal.fsyncs"] = d(before.Fsyncs, after.Fsyncs)

	ops := float64(max(plain.Ops+tracedRes.Ops, 1))
	m["go.allocs_per_op"] = float64(plain.Win.Allocs+tracedRes.Win.Allocs) / ops
	m["go.bytes_per_op"] = float64(plain.Win.Bytes+tracedRes.Win.Bytes) / ops
	m["go.gc_cycles"] = float64(plain.Win.GCCycles + tracedRes.Win.GCCycles)
	m["go.gc_pause_ms"] = float64(plain.Win.GCPause+tracedRes.Win.GCPause) / float64(time.Millisecond)

	res := &result{Correct: checkErr == nil, Attempted: plain.Attempted + tracedRes.Attempted,
		Failed: plain.Failed + tracedRes.Failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := layerUnits[name]
		if unit == "" {
			return nil, fmt.Errorf("per-layer metric %s has no unit", name)
		}
		res.Metrics[name] = metric{Value: m[name], Unit: unit}
		note := ""
		switch name {
		case "meshclient.retry_ratio":
			note = fmt.Sprintf("%g retries over %g attempts", retries, attempts)
		case "wang.reach_hit_ratio":
			note = fmt.Sprintf("%g hits over %g lookups", hits, hits+misses)
		case "serve.socket_us":
			note = "client mean minus server histogram mean, from the " + socketFrom
		case "bench.trace_overhead_pct":
			note = fmt.Sprintf("throughput untraced %.1f, traced %.1f", qps(plain), qps(tracedRes))
		}
		printLine(out, resultLine{Name: name, Value: m[name], Unit: unit, Note: note})
	}
	for _, l := range tracedRes.Extra {
		printLine(out, l)
	}
	reportCheck(out, checkErr)
	return res, nil
}

// layerUnits is every per-layer metric with its unit.
var layerUnits = map[string]string{
	"meshclient.attempts":         "count",
	"meshclient.retries":          "count",
	"meshclient.shed":             "count",
	"meshclient.retry_ratio":      "ratio",
	"meshclient.self_us":          "us",
	"wire.encode_ns":              "ns",
	"wire.decode_ns":              "ns",
	"wire.resp_bytes":             "bytes",
	"serve.http_self_us":          "us",
	"serve.binary_self_us":        "us",
	"serve.socket_us":             "us",
	"serve.queued":                "count",
	"serve.shed":                  "count",
	"serve.repl_lag_max_records":  "records",
	"extmesh.snapshot_hit_ns":     "ns",
	"extmesh.snapshot_rebuild_us": "us",
	"extmesh.apply_us":            "us",
	"extmesh.route_many_us":       "us",
	"extmesh.self_us":             "us",
	"route.route_into_ns":         "ns",
	"route.hops_mean":             "hops",
	"route.view_build_us":         "us",
	"kernel.self_us":              "us",
	"wang.reach_hits":             "count",
	"wang.reach_misses":           "count",
	"wang.reach_hit_ratio":        "ratio",
	"wang.reach_sweep_us":         "us",
	"fault.blocks_us":             "us",
	"core.model_us":               "us",
	"core.ensure_ns":              "ns",
	"journal.append_us":           "us",
	"journal.appends":             "count",
	"journal.fsyncs":              "count",
	"sim.load_faults_us":          "us",
	"reliability.trial_us":        "us",
	"reliability.classify_us":     "us",
	"go.allocs_per_op":            "count",
	"go.bytes_per_op":             "bytes",
	"go.gc_cycles":                "count",
	"go.gc_pause_ms":              "ms",
	"bench.trace_overhead_pct":    "%",
}
