package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"time"

	"extmesh/meshclient"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples and
// how many samples lie beyond its rank.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

// tailPercentile is percentile under the rule: it fails when fewer than
// minBeyond samples lie beyond the q-quantile.
func tailPercentile(sorted []time.Duration, q float64) (time.Duration, error) {
	v, beyond := percentile(sorted, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, len(sorted))
	}
	return v, nil
}

// latencySummary is a median plus one tail percentile of a latency
// sample, with the sample count.
type latencySummary struct {
	N     int
	P50   time.Duration
	Tail  time.Duration
	TailQ float64
}

// summarize sorts lat in place and applies the percentile rule at q.
func summarize(lat []time.Duration, q float64) (latencySummary, error) {
	slices.Sort(lat)
	s := latencySummary{N: len(lat), TailQ: q}
	if len(lat) == 0 {
		return s, errors.New("no latency samples")
	}
	s.P50, _ = percentile(lat, 0.5)
	var err error
	s.Tail, err = tailPercentile(lat, q)
	return s, err
}

// intervalTail splits the samples into sampleEvery intervals by
// completion time and returns the median over intervals of each
// interval's q-quantile, counting only intervals that satisfy the
// percentile rule on their own. A burst of outside load during part of
// a run then moves the tail less. ok is false when fewer than half the
// intervals qualify; the caller reports the whole-run quantile instead.
func intervalTail(lat []time.Duration, at []int64, q float64) (tail time.Duration, used, total int, ok bool) {
	if len(lat) == 0 {
		return 0, 0, 0, false
	}
	start := slices.Min(at)
	buckets := map[int64][]time.Duration{}
	for i, d := range lat {
		k := (at[i] - start) / int64(sampleEvery)
		buckets[k] = append(buckets[k], d)
	}
	var tails []time.Duration
	for _, b := range buckets {
		slices.Sort(b)
		if t, err := tailPercentile(b, q); err == nil {
			tails = append(tails, t)
		}
	}
	if 2*len(tails) < len(buckets) {
		return 0, len(tails), len(buckets), false
	}
	return medianDur(tails), len(tails), len(buckets), true
}

// tailName names a tail percentile the way the result lines print it.
func tailName(q float64) string { return fmt.Sprintf("p%g", q*100) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur returns the median of v (sorting it), zero when empty.
func medianDur(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return v[len(v)/2]
}

// medianFloat returns the median of v (sorting it), zero when empty.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// isFailure classifies a request error. Nil is an answer, and so is the
// server's 422: "no minimal path exists" is a valid verdict. Every
// other outcome is a failed or refused request: transport errors and
// timeouts, 429 load shedding, 5xx, and 4xx write refusals such as
// read_only or stale_epoch.
func isFailure(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *meshclient.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status != http.StatusUnprocessableEntity
	}
	return true
}

// isTimeout reports whether err is a deadline or network timeout; the
// result lines count timeouts separately from other failures.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
