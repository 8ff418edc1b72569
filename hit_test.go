package replicatree_test

// The cache-hit gate: serving a cached /v2 answer must cost a bounded
// number of allocations end to end through the handler — body read,
// one-pass instance decode, canonical hash, cache lookup and the
// compact response encode.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/service"
	"replicatree/internal/solver"
)

// maxHitAllocs bounds the allocations of one non-certificate /v2/solve
// cache hit on a ~200-node instance through Server.ServeHTTP.
const maxHitAllocs = 50

// hitInstance draws the 205-node, 95-client instance shape of the
// hit-replay benchmark workload (W=60, dmax=14).
func hitInstance(seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.TreeConfig{Internals: 110, MaxArity: 3, MaxDist: 4, MaxReq: 10, ExtraClients: 45}
	for {
		if t := gen.RandomTree(rng, cfg); t.Len() == 205 {
			return &core.Instance{Tree: t, W: 60, DMax: 14}
		}
	}
}

// hitBody is the /v2/solve request body for in under "auto".
func hitBody(tb testing.TB, in *core.Instance) []byte {
	tb.Helper()
	body, err := json.Marshal(service.SolveRequestV2{Solver: solver.Auto, Instance: in})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveSolve posts body to h's /v2/solve and returns the recorder.
func serveSolve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/solve", bytes.NewReader(body)))
	return rec
}

func TestHitAllocs(t *testing.T) {
	if os.Getenv("REPLICATREE_SKIP_ALLOC_GATE") != "" {
		t.Skip("REPLICATREE_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	skipIfInstrumented(t)
	srv := service.New(service.Options{CacheSize: 16})
	defer srv.Close()
	body := hitBody(t, hitInstance(1))
	if rec := serveSolve(srv, body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up solve: status %d: %s", rec.Code, rec.Body)
	}
	var resp service.SolveResponseV2
	if rec := serveSolve(srv, body); rec.Code != http.StatusOK {
		t.Fatalf("hit: status %d: %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Cached {
		t.Fatalf("second solve was not a cache hit (err %v): %s", err, rec.Body)
	}
	// The request and recorder are built inside the measured function,
	// so the bound covers them too; it is still far below the ~380
	// allocations of a decode through encoding/json.
	allocs := testing.AllocsPerRun(50, func() {
		if rec := serveSolve(srv, body); rec.Code != http.StatusOK {
			t.Fatalf("hit: status %d", rec.Code)
		}
	})
	if allocs > maxHitAllocs {
		t.Fatalf("cache hit allocates %.0f times per request, want ≤ %d", allocs, maxHitAllocs)
	}
	t.Logf("cache hit: %.0f allocs/request", allocs)
}
