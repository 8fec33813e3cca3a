package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"extmesh"
	"extmesh/internal/metrics"
	"extmesh/internal/wire"
)

// FuzzServeRequests throws arbitrary bodies at every JSON-decoding
// endpoint. The server must never panic, must answer every request
// with a plausible status code, and must keep error responses as
// well-formed JSON. Batch-size and body-size caps mean even adversarial
// inputs are bounded work.
func FuzzServeRequests(f *testing.F) {
	// Well-formed seeds so the fuzzer learns the request shapes.
	f.Add("/v1/mesh/m/route", `{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`)
	f.Add("/v1/mesh/m/route", `{"src":{"x":0,"y":0},"dst":{"x":7,"y":7},"model":"mcc","omit_path":true}`)
	f.Add("/v1/mesh/m/route-assured", `{"src":{"x":1,"y":1},"dst":{"x":6,"y":2}}`)
	f.Add("/v1/mesh/m/safe", `{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`)
	f.Add("/v1/mesh/m/ensure", `{"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"model":"blocks"}`)
	f.Add("/v1/mesh/m/has-minimal-path", `{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`)
	f.Add("/v1/mesh/m/route/batch", `{"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}],"omit_paths":true}`)
	f.Add("/v1/mesh/m/ensure/batch", `{"src":{"x":0,"y":0},"dests":[{"x":1,"y":1},{"x":2,"y":2}]}`)
	f.Add("/v1/mesh/m/has-minimal-path/batch", `{"src":{"x":0,"y":0},"dests":[{"x":1,"y":1}]}`)
	f.Add("/v1/mesh/m/faults", `{"fail":[{"x":2,"y":2}]}`)
	f.Add("/v1/mesh/m/faults", `{"spec":"fail@0:1,1;recover@1:1,1","cycles":10}`)
	f.Add("/v1/mesh", `{"name":"n","width":4,"height":4}`)
	// Adversarial seeds: malformed JSON, absurd coordinates, oversized
	// counts, wrong types, trailing garbage.
	f.Add("/v1/mesh/m/route", `{"src":{"x":-999999999,"y":2147483647},"dst":{"x":0,"y":0}}`)
	f.Add("/v1/mesh/m/route", `{"src":`)
	f.Add("/v1/mesh/m/route", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}{"extra":1}`)
	f.Add("/v1/mesh/m/route", `[1,2,3]`)
	f.Add("/v1/mesh/m/route/batch", `{"pairs":null}`)
	f.Add("/v1/mesh", `{"name":"../../etc/passwd","width":1000000000,"height":1000000000}`)
	f.Add("/v1/mesh", `{"name":"n","width":-5,"height":3}`)
	f.Add("/v1/mesh/m/faults", `{"spec":"random:rate=0.5","fail":[{"x":1,"y":1}]}`)
	f.Add("/v1/mesh/m/faults", `{"spec":"`+strings.Repeat("fail@0:1,1;", 50)+`"}`)
	f.Add("/v1/reliability", `{"width":8,"height":8,"points":[{"k":3},{"p":0.05}],"trials":4,"pairs_per_trial":2,"seed":1}`)
	f.Add("/v1/reliability", `{"width":8,"height":8,"points":[{"k":3}],"trials":4,"pairs_per_trial":2,"target_half_width":0.5,"min_trials":2,"check_every":2}`)
	f.Add("/v1/reliability", `{"width":1000000,"height":8,"points":[{"k":1}],"trials":1,"pairs_per_trial":1}`)
	f.Add("/v1/reliability", `{"width":8,"height":8,"points":[{"p":-4}],"trials":1,"pairs_per_trial":1}`)
	f.Add("/v1/reliability", `{"width":8,"height":8,"points":[{"k":1}],"trials":99999999,"pairs_per_trial":1}`)
	f.Add("/v1/reliability", `{"points":null,"trials":-1}`)

	f.Fuzz(func(t *testing.T, path, body string) {
		// Constrain the fuzzed path to the server's own routes; free-form
		// paths only exercise the mux's 404, not our decoders.
		switch {
		case path == "/v1/mesh", path == "/v1/reliability",
			strings.HasPrefix(path, "/v1/mesh/") && !strings.Contains(path[len("/v1/mesh/"):], "//"):
		default:
			t.Skip()
		}
		// httptest.NewRequest panics on request targets that are not
		// valid HTTP/1.1 tokens; keep the fuzzing on our decoders.
		for i := 0; i < len(path); i++ {
			c := path[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				strings.IndexByte("/._~%-", c) >= 0) {
				t.Skip()
			}
		}
		if len(body) > 1<<16 {
			t.Skip() // decoders cap body size; huge inputs just slow the fuzzer
		}

		// Fresh server per input: fault bodies mutate the mesh, and a
		// shared fixture would make failures irreproducible. Each gets
		// its own metrics registry so counters stay per-execution. The
		// tiny sweep budget keeps any accepted reliability request to
		// trivial work, so the fuzzer exercises the decoder, not the
		// Monte Carlo engine.
		s := New(Options{Metrics: metrics.NewRegistry(), ReliabilityMaxCost: 1 << 12})
		d, err := extmesh.NewDynamic(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Meshes().Create("m", d); err != nil {
			t.Fatal(err)
		}

		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req) // must not panic

		code := rec.Code
		if code < 200 || code > 599 {
			t.Fatalf("implausible status %d for %s %q", code, path, body)
		}
		// 5xx means the server blamed itself for client input — only the
		// snapshot path may do that, and a fresh valid mesh cannot fail it.
		if code >= 500 {
			t.Fatalf("server error %d for %s %q: %s", code, path, body, rec.Body.Bytes())
		}
		// Error responses from our handlers stay machine-readable (the
		// mux's own 404/405 are stdlib plain text).
		ct := rec.Header().Get("Content-Type")
		if code >= 400 && rec.Body.Len() > 0 && strings.HasPrefix(ct, "application/json") {
			var e wire.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d body is not an error JSON: %q", code, rec.Body.Bytes())
			}
		}
	})
}
