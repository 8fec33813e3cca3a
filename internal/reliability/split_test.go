package reliability

import (
	"reflect"
	"sync"
	"testing"

	"extmesh/internal/mesh"
)

// TestSubSeedDecorrelated checks the basic splitter contract: equal
// triples agree, and perturbing any component changes the sub-seed.
func TestSubSeedDecorrelated(t *testing.T) {
	if SubSeed(7, 1, 2) != SubSeed(7, 1, 2) {
		t.Fatal("SubSeed is not a pure function")
	}
	base := SubSeed(7, 1, 2)
	for name, got := range map[string]int64{
		"seed":   SubSeed(8, 1, 2),
		"stream": SubSeed(7, 2, 2),
		"index":  SubSeed(7, 1, 3),
	} {
		if got == base {
			t.Errorf("changing %s left the sub-seed unchanged", name)
		}
	}
	// Consecutive indices must not produce near-identical generators:
	// the first draws of neighboring trials should all differ.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		var r Rand
		r.Seed(1, 1, i)
		v := r.Uint64()
		if seen[v] {
			t.Fatalf("index %d repeats another index's first draw", i)
		}
		seen[v] = true
	}
}

// TestRandSeedRepositions checks that Seed fully resets the generator
// in place: re-seeding replays the same sequence.
func TestRandSeedRepositions(t *testing.T) {
	var r Rand
	r.Seed(42, 3, 9)
	first := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r.Seed(42, 3, 9)
	second := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-seeded sequence differs: %v vs %v", first, second)
	}
}

// TestRandIntnBounds checks range and rough uniformity of Intn.
func TestRandIntnBounds(t *testing.T) {
	var r Rand
	r.Seed(5, 1, 0)
	counts := make([]int, 7)
	const draws = 70000
	for i := 0; i < draws; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < draws/7-draws/70 || c > draws/7+draws/70 {
			t.Errorf("Intn(7): value %d drawn %d times, want ~%d", v, c, draws/7)
		}
	}
}

// sampleTrialFaults draws the fault set of one Monte Carlo trial the
// way the reliability engine does: a per-trial sub-stream, k distinct
// uniform nodes.
func sampleTrialFaults(m mesh.Mesh, seed int64, trial uint64, k int) []mesh.Coord {
	var r Rand
	r.Seed(seed, 100, trial)
	taken := make(map[int]bool, k)
	out := make([]mesh.Coord, 0, k)
	for len(out) < k {
		i := r.Intn(m.Size())
		if taken[i] {
			continue
		}
		taken[i] = true
		out = append(out, m.CoordOf(i))
	}
	return out
}

// TestReshardingInvariant is the determinism audit of the splitter: a
// trial's sampled fault set depends only on (seed, trial index), never
// on how trials are sharded across workers. Three shardings — serial,
// 4 workers striped, 7 workers racing over a shared counter — must
// produce identical per-trial fault sets.
func TestReshardingInvariant(t *testing.T) {
	m := mesh.Mesh{Width: 24, Height: 24}
	const trials, k = 64, 12
	const seed = 99

	run := func(workers int, stripe bool) [][]mesh.Coord {
		out := make([][]mesh.Coord, trials)
		if workers == 1 {
			for tr := 0; tr < trials; tr++ {
				out[tr] = sampleTrialFaults(m, seed, uint64(tr), k)
			}
			return out
		}
		var wg sync.WaitGroup
		if stripe {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for tr := w; tr < trials; tr += workers {
						out[tr] = sampleTrialFaults(m, seed, uint64(tr), k)
					}
				}(w)
			}
		} else {
			var next sync.Mutex
			cursor := 0
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						next.Lock()
						tr := cursor
						cursor++
						next.Unlock()
						if tr >= trials {
							return
						}
						out[tr] = sampleTrialFaults(m, seed, uint64(tr), k)
					}
				}()
			}
		}
		wg.Wait()
		return out
	}

	want := run(1, false)
	for _, cfg := range []struct {
		workers int
		stripe  bool
	}{{4, true}, {7, false}} {
		got := run(cfg.workers, cfg.stripe)
		for tr := range want {
			if !reflect.DeepEqual(got[tr], want[tr]) {
				t.Fatalf("workers=%d stripe=%v: trial %d sampled %v, serial sampled %v",
					cfg.workers, cfg.stripe, tr, got[tr], want[tr])
			}
		}
	}
}
