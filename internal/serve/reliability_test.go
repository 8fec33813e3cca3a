package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"extmesh"
	"extmesh/internal/metrics"
	"extmesh/internal/reliability"
	"extmesh/internal/wire"
)

// newSweepServer returns a reliability-focused test server with its
// own metrics registry and one registered 16x16 mesh for /stats.
func newSweepServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	s := New(opts)
	d, err := extmesh.NewDynamic(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Meshes().Create("m", d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reliability", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestReliabilityParity is the acceptance test tying the endpoint to
// the library: the HTTP response must be byte-identical to marshaling
// the library's own Sweep report for the same configuration.
func TestReliabilityParity(t *testing.T) {
	_, ts := newSweepServer(t, Options{})
	cfg := reliability.Config{
		Width: 24, Height: 24,
		Points:        []reliability.Point{{K: 6}, {P: 0.03}},
		Trials:        32,
		PairsPerTrial: 8,
		Seed:          17,
		CheckEvery:    16,
	}
	code, body := postSweep(t, ts.URL, cfg)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rep, err := reliability.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != string(want) {
		t.Fatalf("endpoint response diverges from the library report:\n%s\nvs\n%s", got, want)
	}
}

// TestReliabilityCaps covers the structural limits and the cost
// budget.
func TestReliabilityCaps(t *testing.T) {
	_, ts := newSweepServer(t, Options{ReliabilityMaxCost: 1 << 12})
	base := func() reliability.Config {
		return reliability.Config{
			Width: 8, Height: 8,
			Points:        []reliability.Point{{K: 2}},
			Trials:        4,
			PairsPerTrial: 2,
		}
	}
	for name, tc := range map[string]struct {
		mutate func(*reliability.Config)
		status int
	}{
		"huge mesh":      {func(c *reliability.Config) { c.Width = MaxSweepDim + 1 }, http.StatusBadRequest},
		"many points":    {func(c *reliability.Config) { c.Points = make([]reliability.Point, MaxSweepPoints+1) }, http.StatusBadRequest},
		"many trials":    {func(c *reliability.Config) { c.Trials = MaxSweepTrials + 1 }, http.StatusBadRequest},
		"many pairs":     {func(c *reliability.Config) { c.PairsPerTrial = MaxBatch + 1 }, http.StatusBadRequest},
		"invalid config": {func(c *reliability.Config) { c.Points = []reliability.Point{{P: 0.99}} }, http.StatusBadRequest},
		"over budget":    {func(c *reliability.Config) { c.Trials = 1000 }, http.StatusRequestEntityTooLarge},
	} {
		cfg := base()
		tc.mutate(&cfg)
		code, body := postSweep(t, ts.URL, cfg)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, code, tc.status, body)
		}
		var e wire.ErrorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not machine-readable: %q", name, body)
		}
	}
	// The base config itself stays accepted.
	if code, body := postSweep(t, ts.URL, base()); code != http.StatusOK {
		t.Fatalf("base config rejected: %d %s", code, body)
	}
}

// TestReliabilityShedAndStats pins the sweep gate: with every slot
// held, requests shed with 429 + Retry-After, the counters record it,
// and /stats exposes the whole block.
func TestReliabilityShedAndStats(t *testing.T) {
	s, ts := newSweepServer(t, Options{MaxSweeps: 1})
	cfg := reliability.Config{
		Width: 8, Height: 8,
		Points:        []reliability.Point{{K: 2}},
		Trials:        8,
		PairsPerTrial: 2,
		Seed:          3,
	}

	// Hold the only slot, as a long-running sweep would.
	if !s.sweeps.tryAcquire() {
		t.Fatal("fresh gate refused a slot")
	}
	data, _ := json.Marshal(cfg)
	resp, err := http.Post(ts.URL+"/v1/reliability", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with the gate full, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	s.sweeps.release()

	// With the slot free the same request succeeds and is counted.
	if code, body := postSweep(t, ts.URL, cfg); code != http.StatusOK {
		t.Fatalf("status %d after release: %s", code, body)
	}

	var stats struct {
		Reliability wire.SweepStats `json:"reliability"`
	}
	r2, err := http.Get(ts.URL + "/v1/mesh/m/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	got := stats.Reliability
	if got.Sweeps != 1 {
		t.Errorf("stats sweeps = %d, want 1", got.Sweeps)
	}
	if got.Trials != uint64(cfg.Trials) {
		t.Errorf("stats trials = %d, want %d", got.Trials, cfg.Trials)
	}
	if got.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", got.Shed)
	}
	if got.InFlight != 0 {
		t.Errorf("stats in-flight = %d, want 0", got.InFlight)
	}
}
