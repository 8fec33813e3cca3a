package main

import (
	"hash/fnv"
	"sync"
	"time"

	"extmesh"
	"extmesh/internal/metrics"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Workdir  string
	// Clients is the number of load goroutines and client connections:
	// min(2, nproc), never more than nproc.
	Clients int
}

// workload is one traffic mix. A workload is built (inputs generated,
// untimed), set up (timed as setup_s), run one or more times, checked,
// and closed.
type workload interface {
	// setup builds the mesh, starts the servers and warms caches, up to
	// the first timed request.
	setup() error
	// run drives load until the deadline; tr, when non-nil, records a
	// span around every call into a layer. Runs accumulate: a second
	// call continues where the first stopped.
	run(until time.Time, tr *tracer) (*loadResult, error)
	// check verifies every answer recorded by the runs so far.
	check() error
	// counters snapshots the server-side counters the per-layer metrics
	// difference across a window.
	counters() counterSnap
	// target is what the traced replay drives: a serving node, its mesh
	// and a sample of this workload's requests.
	target() (*replayTarget, error)
	close()
}

// loadResult is what one run measured.
type loadResult struct {
	// Queries counts (source, destination) queries answered: every pair
	// of a batch, reads only on churn_cluster, pair classifications on
	// survivability_sweep.
	Queries   int64
	Attempted int64
	Failed    int64
	Timeouts  int64
	// Ops is the unit cpu_us_per_op divides by: answered queries, or
	// Monte Carlo trials on survivability_sweep.
	Ops int64
	// Lat holds one sample per request (per sweep on
	// survivability_sweep); TailQ is the tail percentile reported.
	Lat   []time.Duration
	LatAt []int64 // each sample's completion time, unix ns
	TailQ float64
	Win   windowStats
	// Extra lines printed before the result (workload-specific
	// end-to-end metrics).
	Extra []resultLine
	// ClientLatSum/N total the client-side latency on the workload's own
	// transport, which serve.socket_us compares with the server's.
	ClientLatSum time.Duration
	ClientLatN   int64
	// FirstErr is the first failed request's error, for the log.
	FirstErr error
}

// resultLine is one printed metric.
type resultLine struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// counterSnap is a point-in-time copy of the counters the per-layer
// metrics difference: the serving node's registry, the process-wide
// reach-cache counters, and the client's attempt accounting.
type counterSnap struct {
	Queued, Shed      uint64
	Appends, Fsyncs   uint64
	BinaryRequests    uint64
	ServerLatSum      time.Duration
	ServerLatN        uint64
	ReachHits, Misses uint64
	Attempts, Retries uint64
	ClientShed, Calls uint64
	ReplLagMaxRecords uint64
	// BinaryTransport marks a load on the binary plane, whose client
	// keeps no attempt accounting: attempts are the server's frame count
	// and retries the frames beyond the calls made (Calls).
	BinaryTransport bool
}

// reachCounters reads the process-wide reach-cache counters.
func reachCounters(s *counterSnap) {
	s.ReachHits = metrics.Default().Counter("reach_cache_hits_total").Value()
	s.Misses = metrics.Default().Counter("reach_cache_misses_total").Value()
}

// serverCounters reads a node's admission, journal and latency
// instruments; histos names the latency histograms of the workload's
// transport.
func serverCounters(s *counterSnap, n *node, histos ...string) {
	s.Queued += n.counter("http_queued_total")
	s.Shed += n.counter("http_shed_total")
	s.Appends += n.counter("journal_appends_total")
	s.Fsyncs += n.counter("journal_fsyncs_total")
	s.BinaryRequests += n.counter("binary_requests_total")
	for _, h := range histos {
		hist := n.reg.Histogram(h)
		s.ServerLatSum += hist.Sum()
		s.ServerLatN += hist.Count()
	}
}

// httpQueryHistos are the JSON query endpoints' latency histograms.
var httpQueryHistos = []string{"http_latency_route", "http_latency_has_minimal_path", "http_latency_ensure", "http_latency_safe"}

// loopStats is one closed-loop client's tally.
type loopStats struct {
	lat                        []time.Duration
	at                         []int64 // completion times, unix ns
	queries, attempted, failed int64
	timeouts                   int64
	firstErr                   error
}

// closedLoop runs clients goroutines, each sending its next request
// only after the previous one completed, until the deadline. do issues
// request i of client c and returns how many queries it answered. With
// a tracer, every call gets a root span named name. Answered queries
// are counted on m as they complete.
func closedLoop(clients int, until time.Time, tr *tracer, name string, m *meter, do func(c, i int) (int, error)) []loopStats {
	out := make([]loopStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &out[c]
			for i := 0; time.Now().Before(until); i++ {
				t0 := time.Now()
				q, err := do(c, i)
				t1 := time.Now()
				if tr != nil {
					tr.record(name, 0, tr.newReq(), t0, t1)
				}
				st.attempted++
				if isFailure(err) {
					st.failed++
					if isTimeout(err) {
						st.timeouts++
					}
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.queries += int64(q)
				st.lat = append(st.lat, t1.Sub(t0))
				st.at = append(st.at, t1.UnixNano())
				m.add(int64(q), int64(q))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// merge folds per-client tallies into a load result.
func merge(res *loadResult, stats []loopStats) {
	for _, st := range stats {
		res.Queries += st.queries
		res.Attempted += st.attempted
		res.Failed += st.failed
		res.Timeouts += st.timeouts
		res.Lat = append(res.Lat, st.lat...)
		res.LatAt = append(res.LatAt, st.at...)
		for _, d := range st.lat {
			res.ClientLatSum += d
		}
		res.ClientLatN += int64(len(st.lat))
		if res.FirstErr == nil {
			res.FirstErr = st.firstErr
		}
	}
	res.Ops = res.Queries
}

// answerRec is one served answer: the request's index in the
// workload's input pool and a digest of what the server said.
type answerRec struct {
	Idx    uint32
	Digest uint64
}

// digest accumulates a 64-bit FNV-1a hash of answer fields.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) int(v int) {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		d.h ^= x & 0xff
		d.h *= 1099511628211
		x >>= 8
	}
}

func (d *digest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digest) str(s string) {
	f := fnv.New64a()
	f.Write([]byte(s))
	d.int(int(f.Sum64()))
}

func (d *digest) coords(cs []extmesh.Coord) {
	d.int(len(cs))
	for _, c := range cs {
		d.int(c.X)
		d.int(c.Y)
	}
}

func (d *digest) sum() uint64 { return d.h }

// noPath is the hop count digested for a route the server answered
// with 422 (or a batch entry carrying an error).
const noPath = -1
