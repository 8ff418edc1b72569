package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"replicatree/internal/service"
	"replicatree/internal/solver"
)

// goldenManifest loads the golden corpus manifest: instance file →
// solver → replica count.
func goldenManifest(t testing.TB) map[string]map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest map[string]map[string]int
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// normalizeSolve decodes a /v2/solve body and strips the fields that
// legitimately differ between a fleet and a single daemon: elapsed
// wall-clock and cache warmth (the fleet may have gossiped the entry
// warm before the comparison request arrives).
func normalizeSolve(t testing.TB, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("non-JSON solve body: %v: %s", err, body)
	}
	delete(m, "elapsed_ms")
	delete(m, "cached")
	return m
}

// TestRouterSolveParityGoldenCorpus is the fleet's API-freeze pin:
// for every (instance, solver) pair of the golden corpus, the fleet
// router's /v2/solve response is byte-compatible with a single
// daemon's — same solutions, hashes, bounds, engines and problem
// rendering — modulo timing and cache-warmth fields. Clients must not
// be able to tell a fleet from one replicad.
func TestRouterSolveParityGoldenCorpus(t *testing.T) {
	manifest := goldenManifest(t)
	_, fleetTS := newTestFleet(t, Config{Workers: 4, Replication: 2, CacheSize: 4096})
	single := service.New(service.Options{CacheSize: 4096})
	t.Cleanup(single.Close)
	singleTS := httptest.NewServer(single)
	t.Cleanup(singleTS.Close)

	pairs := 0
	for file, want := range manifest {
		in := corpusInstance(t, file)
		for name := range want {
			if name == "lower-bound" {
				continue
			}
			req := service.SolveRequestV2{Solver: name, Instance: in}
			fresp, fbody := postBody(t, fleetTS.URL+"/v2/solve", req)
			sresp, sbody := postBody(t, singleTS.URL+"/v2/solve", req)
			if fresp.StatusCode != sresp.StatusCode {
				t.Errorf("%s/%s: fleet status %d vs single %d", file, name, fresp.StatusCode, sresp.StatusCode)
				continue
			}
			if fresp.StatusCode != http.StatusOK {
				t.Errorf("%s/%s: golden pair did not solve: %d %s", file, name, fresp.StatusCode, fbody)
				continue
			}
			pairs++
			fm, sm := normalizeSolve(t, fbody), normalizeSolve(t, sbody)
			if !reflect.DeepEqual(fm, sm) {
				t.Errorf("%s/%s: fleet response diverged from single daemon:\nfleet:  %s\nsingle: %s",
					file, name, fbody, sbody)
			}
		}
	}
	if pairs < 50 {
		t.Fatalf("parity covered only %d (instance, solver) pairs", pairs)
	}
}

// TestRouterProblemPassthrough: worker-rendered RFC 7807 problems
// (unknown solver, bad request, malformed JSON) come through the
// router verbatim, media type included.
func TestRouterProblemPassthrough(t *testing.T) {
	_, ts := newTestFleet(t, Config{Workers: 2})
	in := corpusInstance(t, "binary_nod_1.json")

	cases := []struct {
		name   string
		path   string
		req    any
		status int
		typ    string
	}{
		{"unknown solver", "/v2/solve", service.SolveRequestV2{Solver: "nope", Instance: in},
			http.StatusNotFound, service.ProblemUnknownSolver},
		{"missing instance", "/v2/solve", service.SolveRequestV2{Solver: "single-gen"},
			http.StatusBadRequest, service.ProblemBadRequest},
		{"negative batch timeout", "/v2/batch", service.BatchRequestV2{TimeoutMS: -1,
			Tasks: []service.BatchTaskV2{{Solver: "single-gen", Instance: in}}},
			http.StatusBadRequest, service.ProblemBadRequest},
	}
	for _, c := range cases {
		resp, body := postBody(t, ts.URL+c.path, c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
			t.Errorf("%s: content type %q", c.name, ct)
		}
		var p service.Problem
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("%s: non-problem body: %s", c.name, body)
		}
		if p.Type != c.typ {
			t.Errorf("%s: problem type %q, want %q", c.name, p.Type, c.typ)
		}
	}

	// Malformed JSON has no routable key; the fallback worker renders
	// the same 400 a single daemon would.
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

// TestRouterFleetUnavailable: with every worker dead the router emits
// its own 502 problem instead of hanging or panicking.
func TestRouterFleetUnavailable(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 2, FailoverAttempts: 1})
	for _, id := range f.WorkerIDs() {
		if err := f.Kill(id); err != nil {
			t.Fatal(err)
		}
	}
	in := corpusInstance(t, "binary_nod_1.json")
	resp, body := postBody(t, ts.URL+"/v2/solve", service.SolveRequestV2{Solver: "single-gen", Instance: in})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	var p service.Problem
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Type != ProblemFleetUnavailable {
		t.Errorf("problem type %q, want %q", p.Type, ProblemFleetUnavailable)
	}
	if snap := f.Snapshot(); snap.Unroutable == 0 {
		t.Error("unroutable counter did not move")
	}
}

// TestRouterBatchLifecycle drives a batch through the router: accept,
// poll to done on the owning worker, and tier-2 peer hits for the
// tasks the owning worker does not own (they were warmed at their own
// owners first).
func TestRouterBatchLifecycle(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 4, Replication: 0, CacheSize: 256})
	files := []string{"binary_nod_1.json", "binary_dist_2.json", "gadget_fig4.json"}
	req := service.BatchRequestV2{Workers: 1}
	owners := make(map[string]bool)
	for i, file := range files {
		in := corpusInstance(t, file)
		// Warm each key at its own owner first.
		solveVia(t, ts.URL, "single-gen", in)
		owner, _ := f.ring.Owner(in.CanonicalHash())
		owners[owner] = true
		req.Tasks = append(req.Tasks, service.BatchTaskV2{
			ID: files[i], Solver: "single-gen", Instance: in,
		})
	}
	if len(owners) < 2 {
		t.Skip("corpus keys all landed on one worker; tier-2 batch assertion is vacuous")
	}

	resp, body := postBody(t, ts.URL+"/v2/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc service.BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Tasks != len(files) || !strings.HasPrefix(acc.StatusURL, "/v2/jobs/") {
		t.Fatalf("accept body %+v", acc)
	}

	deadline := time.Now().Add(10 * time.Second)
	var jr service.JobResponseV2
	for {
		jresp, jbody := func() (*http.Response, []byte) {
			r, err := http.Get(ts.URL + acc.StatusURL)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			b, _ := io.ReadAll(r.Body)
			return r, b
		}()
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", jresp.StatusCode, jbody)
		}
		if err := json.Unmarshal(jbody, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Status == service.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range jr.Results {
		if !r.OK {
			t.Errorf("task %s failed: %s", r.ID, r.Error)
		}
		if !r.Cached {
			t.Errorf("task %s was not served from cache despite pre-warming", r.ID)
		}
	}
	// The batch was routed whole to one worker; the tasks owned by
	// other workers were pre-warmed there, so serving them took tier-2
	// peer lookups.
	if snap := f.Snapshot(); snap.Totals.Tier2Hits == 0 {
		t.Error("cross-owner batch produced no tier-2 hits")
	}
}

// TestRouterJobLostAfterKill: polling a job whose owning worker died
// yields the typed job-lost problem, not a hang or a 5xx storm.
func TestRouterJobLostAfterKill(t *testing.T) {
	f, ts := newTestFleet(t, Config{Workers: 3})
	in := corpusInstance(t, "binary_nod_1.json")
	req := service.BatchRequestV2{Workers: 1, Tasks: []service.BatchTaskV2{
		{ID: "one", Solver: "single-gen", Instance: in},
	}}
	resp, body := postBody(t, ts.URL+"/v2/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc service.BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	owner, _ := f.ring.Owner(in.CanonicalHash())
	if err := f.Kill(owner); err != nil {
		t.Fatal(err)
	}

	jresp, err := http.Get(ts.URL + acc.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	jbody, _ := io.ReadAll(jresp.Body)
	if jresp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll after kill: status %d: %s", jresp.StatusCode, jbody)
	}
	var p service.Problem
	if err := json.Unmarshal(jbody, &p); err != nil {
		t.Fatal(err)
	}
	if p.Type != ProblemJobLost {
		t.Errorf("problem type %q, want %q", p.Type, ProblemJobLost)
	}

	// An unknown job ID broadcasts and relays the workers' own 404.
	uresp, err := http.Get(ts.URL + "/v2/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", uresp.StatusCode)
	}
}

// TestRouterSolvers: the capability catalog comes through the router
// exactly as a single daemon renders it (the registry is
// process-wide).
func TestRouterSolvers(t *testing.T) {
	_, ts := newTestFleet(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/v2/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []service.CapabilityDoc
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(solver.Catalog()) {
		t.Errorf("%d capability docs for %d registered engines", len(docs), len(solver.Catalog()))
	}
}

// TestRouterRejectsTrailingData: a body with bytes after its JSON
// value has no routing key, and the worker that renders it must agree
// it is malformed — a 400, never a 200 from a non-owner's cold cache.
func TestRouterRejectsTrailingData(t *testing.T) {
	_, ts := newTestFleet(t, Config{Workers: 2})
	in := corpusInstance(t, "binary_nod_1.json")
	body, err := json.Marshal(service.SolveRequestV2{Solver: "single-gen", Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if solveKey(append(body, "xyz"...)) != "" {
		t.Fatal("a body with trailing data yielded a routing key")
	}
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(string(body)+"xyz"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var p service.Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil || p.Type != service.ProblemBadRequest {
		t.Fatalf("problem %+v (decode err %v), want type %q", p, err, service.ProblemBadRequest)
	}
}
