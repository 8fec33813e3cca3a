package serve

import (
	"net/http"
	"runtime"

	"extmesh/internal/metrics"
	"extmesh/internal/reliability"
	"extmesh/internal/wire"
)

// Structural caps on one sweep request, enforced before the cost
// budget: they bound the decoded request itself, the way MaxBatch
// bounds a query batch.
const (
	// MaxSweepDim bounds the swept mesh's side length.
	MaxSweepDim = 512
	// MaxSweepPoints bounds the fault-intensity grid.
	MaxSweepPoints = 64
	// MaxSweepTrials bounds the per-point trial budget.
	MaxSweepTrials = 1 << 16
)

// sweepGate is the admission control of the reliability plane. Sweeps
// get their own tiny gate rather than sharing the query gate: one
// sweep is seconds-to-minutes of saturated CPU where a route query is
// microseconds, so a handful of sweeps must not push the query plane
// into 429s (or vice versa). There is no queue — a shed sweep is
// cheap for the client to retry, and queueing minutes of work behind
// minutes of work helps nobody.
type sweepGate struct {
	slots chan struct{}

	runs     *metrics.Counter
	trials   *metrics.Counter
	shed     *metrics.Counter
	inflight *metrics.Gauge
}

func newSweepGate(max int, m *metrics.Registry) *sweepGate {
	return &sweepGate{
		slots:    make(chan struct{}, max),
		runs:     m.Counter("reliability_sweeps_total"),
		trials:   m.Counter("reliability_trials_total"),
		shed:     m.Counter("reliability_shed_total"),
		inflight: m.Gauge("reliability_inflight"),
	}
}

// tryAcquire claims a sweep slot without queueing.
func (g *sweepGate) tryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		g.inflight.Set(int64(len(g.slots)))
		return true
	default:
		g.shed.Inc()
		return false
	}
}

func (g *sweepGate) release() {
	<-g.slots
	g.inflight.Set(int64(len(g.slots)))
}

// handleReliability is POST /v1/reliability: run a Monte Carlo
// survivability sweep and return its report. The request body is the
// JSON form of reliability.Config; the response is byte-identical to
// marshaling the library's own Sweep result for the same config, which
// the parity test pins.
func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	var cfg reliability.Config
	if err := decodeBody(r, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cfg.Width > MaxSweepDim || cfg.Height > MaxSweepDim {
		writeError(w, http.StatusBadRequest, "mesh %dx%d exceeds the %d side limit", cfg.Width, cfg.Height, MaxSweepDim)
		return
	}
	if len(cfg.Points) > MaxSweepPoints {
		writeError(w, http.StatusBadRequest, "%d sweep points exceed the %d limit", len(cfg.Points), MaxSweepPoints)
		return
	}
	if cfg.Trials > MaxSweepTrials {
		writeError(w, http.StatusBadRequest, "%d trials exceed the %d limit", cfg.Trials, MaxSweepTrials)
		return
	}
	if cfg.PairsPerTrial > MaxBatch {
		writeError(w, http.StatusBadRequest, "%d pairs per trial exceed the %d limit", cfg.PairsPerTrial, MaxBatch)
		return
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cost := cfg.Cost(); cost > s.opts.ReliabilityMaxCost {
		writeError(w, http.StatusRequestEntityTooLarge,
			"sweep cost %d exceeds the server budget %d: fewer points, trials or cells", cost, s.opts.ReliabilityMaxCost)
		return
	}
	// Clamp the fan-out to this machine; the report is identical at any
	// worker count, so the clamp is invisible to the client.
	if max := runtime.GOMAXPROCS(0); cfg.Workers <= 0 || cfg.Workers > max {
		cfg.Workers = max
	}
	if !s.sweeps.tryAcquire() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "server saturated: %d sweeps in flight", cap(s.sweeps.slots))
		return
	}
	defer s.sweeps.release()
	s.sweeps.runs.Inc()

	cfg.OnRound = func(trials int) { s.sweeps.trials.Add(uint64(trials)) }
	cfg.Done = r.Context().Done()
	rep, err := reliability.Sweep(cfg)
	if err == reliability.ErrCanceled {
		return // the client is gone; nothing to write
	}
	if err != nil {
		// Validate already passed, so this is unreachable; keep the
		// blame on the request rather than claiming a server fault.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) reliabilityStats() wire.SweepStats {
	return wire.SweepStats{
		Sweeps:   s.sweeps.runs.Value(),
		Trials:   s.sweeps.trials.Value(),
		Shed:     s.sweeps.shed.Value(),
		InFlight: s.sweeps.inflight.Value(),
	}
}
