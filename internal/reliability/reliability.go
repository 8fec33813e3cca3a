// Package reliability is the Monte Carlo survivability engine: it
// sweeps a grid of fault intensities (a probability p per node, or an
// exact fault count k), samples seeded random fault sets, classifies
// each trial with the fast routing kernels (fault-block construction,
// the bit-parallel existence sweep, the paper's safety conditions),
// and reports per-point survivability estimates with confidence
// intervals, cross-checked against the Theorem 2 analytic model.
//
// # Determinism contract
//
// A sweep is a pure function of its Config: the same seed produces a
// byte-identical Report at any worker count. Three mechanisms combine
// to give that:
//
//   - Randomness is never drawn from a stream owned by a worker. Every
//     trial derives its own sub-streams from (seed, point, trial index)
//     through SubSeed (split.go), so workers are pure executors of trial
//     indices and resharding cannot change what a trial samples.
//   - Trial outcomes reduce into integer accumulators (counts, sums,
//     sums of squares) with atomic adds. Integer addition commutes, so
//     completion order cannot change a point's totals; floats are only
//     derived from the final integers.
//   - Trials run in fixed-size rounds with a barrier between rounds.
//     The early-termination check runs on round boundaries only, so
//     the number of trials executed is itself deterministic.
//
// # Hot path
//
// Each worker owns a sim.Arena plus small mark grids, all reused
// across trials, so warm trials are allocation-free (guarded by an
// AllocsPerRun test).
package reliability

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"extmesh/internal/analytic"
	"extmesh/internal/core"
	"extmesh/internal/mesh"
	"extmesh/internal/sim"
)

// ErrCanceled is returned by Sweep when Config.Done closes before the
// sweep finishes.
var ErrCanceled = errors.New("reliability: sweep canceled")

// Point is one fault intensity of a sweep: either an exact fault
// count K > 0, or (when K == 0) an independent per-node fault
// probability P.
type Point struct {
	P float64 `json:"p,omitempty"`
	K int     `json:"k,omitempty"`
}

// EffectiveK returns the expected fault count of the point on an
// s-node mesh: K itself, or P*s rounded for probability points. It is
// the k fed to the Theorem 2 cross-check.
func (pt Point) EffectiveK(size int) int {
	if pt.K > 0 {
		return pt.K
	}
	return int(pt.P*float64(size) + 0.5)
}

func (pt Point) String() string {
	if pt.K > 0 {
		return fmt.Sprintf("k=%d", pt.K)
	}
	return fmt.Sprintf("p=%g", pt.P)
}

// Config parameterizes one sweep.
type Config struct {
	Width  int `json:"width"`
	Height int `json:"height"`

	// Points is the grid of fault intensities to sweep.
	Points []Point `json:"points"`

	// Trials is the per-point trial budget. PairsPerTrial destinations
	// are classified against one sampled source per trial.
	Trials        int `json:"trials"`
	PairsPerTrial int `json:"pairs_per_trial"`

	Seed int64 `json:"seed"`

	// Workers caps the fan-out; 0 means GOMAXPROCS. The report is
	// byte-identical at any value.
	Workers int `json:"workers,omitempty"`

	// TargetHalfWidth, when positive, stops a point early once the
	// Wilson half-width of the minimal-path estimate falls to the
	// target (checked on round boundaries, after at least MinTrials
	// trials).
	TargetHalfWidth float64 `json:"target_half_width,omitempty"`
	MinTrials       int     `json:"min_trials,omitempty"`

	// CheckEvery is the round size in trials; 0 means 64.
	CheckEvery int `json:"check_every,omitempty"`

	// OnRound, when set, observes progress: it is called after each
	// completed round with the number of trials that round ran.
	OnRound func(trials int) `json:"-"`

	// Done, when set, cancels the sweep between rounds.
	Done <-chan struct{} `json:"-"`
}

// defaultCheckEvery is the round size when Config.CheckEvery is 0.
const defaultCheckEvery = 64

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("reliability: mesh %dx%d too small", c.Width, c.Height)
	}
	if len(c.Points) == 0 {
		return fmt.Errorf("reliability: no sweep points")
	}
	size := c.Width * c.Height
	for _, pt := range c.Points {
		if pt.K < 0 || pt.K > size-2 {
			return fmt.Errorf("reliability: fault count %d out of range for %d nodes", pt.K, size)
		}
		if pt.K == 0 && (pt.P < 0 || pt.P > 0.9) {
			return fmt.Errorf("reliability: fault probability %g out of range [0, 0.9]", pt.P)
		}
	}
	if c.Trials <= 0 || c.PairsPerTrial <= 0 {
		return fmt.Errorf("reliability: trials and pairs per trial must be positive")
	}
	if c.Workers < 0 || c.TargetHalfWidth < 0 || c.MinTrials < 0 || c.CheckEvery < 0 {
		return fmt.Errorf("reliability: negative workers, target, min trials, or round size")
	}
	return nil
}

// Cost returns the sweep's work bound — total trials times the
// per-trial work (one mesh rebuild plus the pair classifications) —
// the unit the serving plane budgets against.
func (c Config) Cost() int64 {
	perTrial := int64(c.Width)*int64(c.Height) + int64(c.PairsPerTrial)
	return perTrial * int64(c.Trials) * int64(len(c.Points))
}

// Estimate is a proportion estimate with its 95% Wilson score
// interval.
type Estimate struct {
	Fraction  float64 `json:"fraction"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Successes int64   `json:"successes"`
	Samples   int64   `json:"samples"`
}

// HalfWidth returns half the confidence interval's width.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// Contains reports whether v lies inside the interval.
func (e Estimate) Contains(v float64) bool { return v >= e.Lo && v <= e.Hi }

// MeanEstimate is a per-trial mean with its 95% normal interval.
type MeanEstimate struct {
	Mean    float64 `json:"mean"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Samples int64   `json:"samples"`
}

// HalfWidth returns half the confidence interval's width.
func (e MeanEstimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// Contains reports whether v lies inside the interval.
func (e MeanEstimate) Contains(v float64) bool { return v >= e.Lo && v <= e.Hi }

// PointResult is one sweep point's estimates.
type PointResult struct {
	Point  Point `json:"point"`
	Trials int   `json:"trials"`

	// MeanFaults is the average sampled fault count (equals Point.K
	// exactly for count points; estimates P*size for probability
	// points).
	MeanFaults float64 `json:"mean_faults"`

	// Minimal is the fraction of sampled pairs with a minimal path
	// (the exact existence DP); Safe the fraction certified by the
	// paper's base sufficient condition; Assured the fraction certified
	// minimal by strategy 1 (extensions 1+2).
	Minimal Estimate `json:"minimal"`
	Safe    Estimate `json:"safe"`
	Assured Estimate `json:"assured"`

	// AffectedRows/Cols estimate the expected number of rows/columns
	// containing at least one fault — the quantity of Theorem 2, whose
	// prediction for EffectiveK is in AnalyticRows/Cols.
	AffectedRows MeanEstimate `json:"affected_rows"`
	AffectedCols MeanEstimate `json:"affected_cols"`
	AnalyticRows float64      `json:"analytic_rows"`
	AnalyticCols float64      `json:"analytic_cols"`
}

// Report is the output of one sweep.
type Report struct {
	Width         int           `json:"width"`
	Height        int           `json:"height"`
	Seed          int64         `json:"seed"`
	Trials        int           `json:"trials"`
	PairsPerTrial int           `json:"pairs_per_trial"`
	Points        []PointResult `json:"points"`
}

// pointAccum collects one point's trial outcomes. All fields are
// integers updated with atomic adds, so the totals are independent of
// trial completion order.
type pointAccum struct {
	trials    int64
	faults    int64
	pairs     int64
	minimal   int64
	safe      int64
	assured   int64
	rows      int64
	rowsSq    int64
	cols      int64
	colsSq    int64
	srcFailed int64 // trials abandoned because no usable source exists
}

// Per-purpose sub-stream ids. Each sweep point pi draws trial faults
// from stream 2*pi+streamFaults and pairs from 2*pi+streamPairs of the
// sweep seed.
const (
	streamFaults uint64 = 1
	streamPairs  uint64 = 2
)

// worker is one goroutine's reusable trial state.
type worker struct {
	m      mesh.Mesh
	arena  *sim.Arena
	faults []mesh.Coord
	faulty []bool
	rowHit []bool
	colHit []bool
	rng    Rand
}

func newWorker(m mesh.Mesh) *worker {
	return &worker{
		m:      m,
		arena:  sim.NewArena(),
		faults: make([]mesh.Coord, 0, m.Size()),
		faulty: make([]bool, m.Size()),
		rowHit: make([]bool, m.Height),
		colHit: make([]bool, m.Width),
	}
}

// strategy1 is the deterministic certification strategy evaluated per
// pair: extensions 1 and 2 at the paper's segment size. (Extension 3
// needs pivot sets, which would consume randomness; the serving and
// analytics planes use the deterministic strategy.)
var strategy1 = core.Strategy{UseExt1: true, UseExt2: true, SegSize: core.StrategySegSize}

// runTrial executes one Monte Carlo trial: sample the point's fault
// set from the trial's own sub-streams, rebuild the arena, classify
// PairsPerTrial destinations against one sampled source, and fold the
// outcome into acc. Warm calls are allocation-free.
func (w *worker) runTrial(cfg *Config, m mesh.Mesh, pi int, pt Point, trial uint64, acc *pointAccum) {
	// Sample the fault set. The undo lists (w.faults) keep the mark
	// grids clean in O(k) instead of O(n^2) per trial.
	w.rng.Seed(cfg.Seed, 2*uint64(pi)+streamFaults, trial)
	w.faults = w.faults[:0]
	size := m.Size()
	if pt.K > 0 {
		for len(w.faults) < pt.K {
			i := w.rng.Intn(size)
			if w.faulty[i] {
				continue
			}
			w.faulty[i] = true
			w.faults = append(w.faults, m.CoordOf(i))
		}
	} else {
		for i := 0; i < size; i++ {
			if w.rng.Float64() < pt.P {
				w.faulty[i] = true
				w.faults = append(w.faults, m.CoordOf(i))
			}
		}
	}

	// Theorem 2's quantity: rows/columns containing at least one
	// fault, computed on the raw fault set (not the fault blocks).
	rows, cols := 0, 0
	for _, f := range w.faults {
		if !w.rowHit[f.Y] {
			w.rowHit[f.Y] = true
			rows++
		}
		if !w.colHit[f.X] {
			w.colHit[f.X] = true
			cols++
		}
	}

	atomic.AddInt64(&acc.trials, 1)
	atomic.AddInt64(&acc.faults, int64(len(w.faults)))
	atomic.AddInt64(&acc.rows, int64(rows))
	atomic.AddInt64(&acc.rowsSq, int64(rows)*int64(rows))
	atomic.AddInt64(&acc.cols, int64(cols))
	atomic.AddInt64(&acc.colsSq, int64(cols)*int64(cols))

	// Sample the source from the pair sub-stream: uniform over
	// non-faulty nodes, by rejection with a deterministic attempt cap
	// (probability points can, rarely, fault out almost everything).
	w.rng.Seed(cfg.Seed, 2*uint64(pi)+streamPairs, trial)
	src, ok := mesh.Coord{}, false
	for attempt := 0; attempt < 4*size; attempt++ {
		i := w.rng.Intn(size)
		if !w.faulty[i] {
			src, ok = m.CoordOf(i), true
			break
		}
	}
	if !ok || len(w.faults) >= size-1 {
		atomic.AddInt64(&acc.srcFailed, 1)
		w.unmark()
		return
	}
	if err := w.arena.LoadFaults(m, src, w.faults); err != nil {
		// Unreachable for validated configs; surface as a dead trial
		// rather than a partial panic.
		atomic.AddInt64(&acc.srcFailed, 1)
		w.unmark()
		return
	}

	reach := w.arena.Reach()
	md := w.arena.BlockModel()
	var pairs, minimal, safe, assured int64
	for p := 0; p < cfg.PairsPerTrial; p++ {
		var d mesh.Coord
		found := false
		for attempt := 0; attempt < 4*size; attempt++ {
			i := w.rng.Intn(size)
			if d = m.CoordOf(i); !w.faulty[i] && d != src {
				found = true
				break
			}
		}
		if !found {
			break
		}
		pairs++
		if reach.CanReach(d) {
			minimal++
		}
		if md.Safe(src, d) {
			safe++
		}
		if md.Evaluate(src, d, strategy1).Verdict == core.Minimal {
			assured++
		}
	}
	atomic.AddInt64(&acc.pairs, pairs)
	atomic.AddInt64(&acc.minimal, minimal)
	atomic.AddInt64(&acc.safe, safe)
	atomic.AddInt64(&acc.assured, assured)
	w.unmark()
}

// unmark clears the trial's marks from the grids via the undo list.
func (w *worker) unmark() {
	for _, f := range w.faults {
		w.faulty[w.m.Index(f)] = false
		w.rowHit[f.Y] = false
		w.colHit[f.X] = false
	}
}

// Sweep runs the full Monte Carlo sweep and returns its report.
func Sweep(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mesh.Mesh{Width: cfg.Width, Height: cfg.Height}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checkEvery := cfg.CheckEvery
	if checkEvery <= 0 {
		checkEvery = defaultCheckEvery
	}
	minTrials := cfg.MinTrials
	if minTrials <= 0 {
		minTrials = checkEvery
	}

	rep := &Report{
		Width:         cfg.Width,
		Height:        cfg.Height,
		Seed:          cfg.Seed,
		Trials:        cfg.Trials,
		PairsPerTrial: cfg.PairsPerTrial,
		Points:        make([]PointResult, 0, len(cfg.Points)),
	}

	// Worker state persists across rounds and points, so the per-node
	// grids are allocated exactly once per sweep.
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(m)
	}

	for pi, pt := range cfg.Points {
		var acc pointAccum
		done := 0
		for done < cfg.Trials {
			if cfg.Done != nil {
				select {
				case <-cfg.Done:
					return nil, ErrCanceled
				default:
				}
			}
			round := checkEvery
			if left := cfg.Trials - done; round > left {
				round = left
			}
			// One round: workers drain trial indices [done, done+round)
			// from a shared cursor, then barrier. Which worker runs
			// which trial is irrelevant — a trial's draws depend only
			// on (seed, point, trial index).
			next := int64(done)
			end := int64(done + round)
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					for {
						t := atomic.AddInt64(&next, 1) - 1
						if t >= end {
							return
						}
						w.runTrial(&cfg, m, pi, pt, uint64(t), &acc)
					}
				}(w)
			}
			wg.Wait()
			done += round
			if cfg.OnRound != nil {
				cfg.OnRound(round)
			}
			if cfg.TargetHalfWidth > 0 && done >= minTrials {
				min := wilson(atomic.LoadInt64(&acc.minimal), atomic.LoadInt64(&acc.pairs))
				if min.Samples > 0 && min.HalfWidth() <= cfg.TargetHalfWidth {
					break
				}
			}
		}
		rep.Points = append(rep.Points, finishPoint(m, pt, &acc))
	}
	return rep, nil
}

// EstimatePoint runs a single-point sweep and returns its result — the
// library convenience behind meshinfo's cross-check line.
func EstimatePoint(cfg Config, pt Point) (PointResult, error) {
	cfg.Points = []Point{pt}
	rep, err := Sweep(cfg)
	if err != nil {
		return PointResult{}, err
	}
	return rep.Points[0], nil
}

// finishPoint derives a point's float estimates from its integer
// accumulator.
func finishPoint(m mesh.Mesh, pt Point, acc *pointAccum) PointResult {
	trials := acc.trials
	res := PointResult{
		Point:        pt,
		Trials:       int(trials),
		Minimal:      wilson(acc.minimal, acc.pairs),
		Safe:         wilson(acc.safe, acc.pairs),
		Assured:      wilson(acc.assured, acc.pairs),
		AffectedRows: meanCI(acc.rows, acc.rowsSq, trials),
		AffectedCols: meanCI(acc.cols, acc.colsSq, trials),
	}
	if trials > 0 {
		res.MeanFaults = float64(acc.faults) / float64(trials)
	}
	k := pt.EffectiveK(m.Size())
	res.AnalyticRows = analytic.ExpectedAffected(m.Height, k)
	res.AnalyticCols = analytic.ExpectedAffected(m.Width, k)
	return res
}

// z95 is the two-sided 95% normal quantile used by both intervals.
const z95 = 1.959963984540054

// wilson returns the Wilson score interval of succ successes in n
// Bernoulli samples at 95% confidence.
func wilson(succ, n int64) Estimate {
	e := Estimate{Successes: succ, Samples: n}
	if n <= 0 {
		return e
	}
	p := float64(succ) / float64(n)
	e.Fraction = p
	nf := float64(n)
	z2 := z95 * z95
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z95 / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	e.Lo = math.Max(0, center-half)
	e.Hi = math.Min(1, center+half)
	return e
}

// meanCI returns the normal 95% interval of a per-trial mean from its
// integer sum and sum of squares.
func meanCI(sum, sumSq, n int64) MeanEstimate {
	e := MeanEstimate{Samples: n}
	if n <= 0 {
		return e
	}
	nf := float64(n)
	mean := float64(sum) / nf
	e.Mean = mean
	if n > 1 {
		variance := (float64(sumSq) - nf*mean*mean) / (nf - 1)
		if variance < 0 {
			variance = 0
		}
		half := z95 * math.Sqrt(variance/nf)
		e.Lo = mean - half
		e.Hi = mean + half
	} else {
		e.Lo, e.Hi = mean, mean
	}
	return e
}
