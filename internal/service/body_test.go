package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// TestSolveRejectsTrailingData: a body is exactly one JSON value. A
// valid request followed by anything but whitespace is a 400, the
// same rule the fleet router applies when it extracts the routing key
// (so a router can never send such a body to a non-owner worker that
// would answer it).
func TestSolveRejectsTrailingData(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	body, err := json.Marshal(SolveRequestV2{Solver: "single-gen", Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{CacheSize: 8})
	for _, tc := range []struct {
		suffix string
		status int
	}{
		{"", http.StatusOK},
		{" \n\t", http.StatusOK},
		{"xyz", http.StatusBadRequest},
		{"{}", http.StatusBadRequest},
		{"]", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(string(body)+tc.suffix))
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("suffix %q: status %d, want %d: %s", tc.suffix, resp.StatusCode, tc.status, buf)
		}
		if tc.status != http.StatusOK {
			if p := problemFrom(t, resp, buf); p.Type != ProblemBadRequest {
				t.Errorf("suffix %q: problem type %q", tc.suffix, p.Type)
			}
		}
	}
}

// TestReadBodyForgedContentLength: a request that declares a body
// near the size cap but sends a few bytes gets its 400 without the
// server reserving the declared size.
func TestReadBodyForgedContentLength(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheSize: 8})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/v2/solve", strings.NewReader(`{"solver":`))
	req.ContentLength = maxBodyBytes - 1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("a %d-byte body with a forged Content-Length allocated %d bytes", len(`{"solver":`), grew)
	}
}

// registerForgedSolver registers an engine whose solutions are always
// infeasible (no replicas at all). It declares itself heterogeneous,
// which keeps it out of the auto portfolio.
var registerForgedSolver = sync.OnceFunc(func() {
	solver.MustRegisterEngine(solver.NewEngine(solver.Capabilities{
		Name: "test-forged", Policy: core.Multiple, SupportsDMax: true, Hetero: true,
		Cost: solver.CostPolynomial, Description: "test: returns an empty placement",
	}, func(ctx context.Context, req solver.Request) (*core.Solution, int64, error) {
		return &core.Solution{}, 0, nil
	}))
})

// TestForgedSolutionFailsVerification: verify-on-serve rejects an
// engine's infeasible answer with the 500 verification-failed problem
// and never caches it.
func TestForgedSolutionFailsVerification(t *testing.T) {
	registerForgedSolver()
	srv, ts := newTestServer(t, Options{CacheSize: 8})
	in := goldenInstance(t, "binary_dist_1.json")
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "test-forged", Instance: in})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d, want 500: %s", i, resp.StatusCode, body)
		}
		if p := problemFrom(t, resp, body); p.Type != ProblemVerification {
			t.Fatalf("attempt %d: problem type %q, want %q", i, p.Type, ProblemVerification)
		}
	}
	if st := srv.CacheStats(); st.Hits != 0 {
		t.Fatalf("a forged solution was served from the cache: %+v", st)
	}
}

// TestCompactResponses: /v2 bodies are compact JSON, one line.
func TestCompactResponses(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	_, ts := newTestServer(t, Options{CacheSize: 8})
	for _, req := range []SolveRequestV2{
		{Solver: "single-gen", Instance: in},
		{Solver: "nope", Instance: in},
	} {
		_, body := postJSON(t, ts.URL+"/v2/solve", req)
		if s := strings.TrimSuffix(string(body), "\n"); strings.Contains(s, "\n") {
			t.Fatalf("response body is not compact: %.200s", body)
		}
	}
}
