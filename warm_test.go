package replicatree_test

// Warm-path gates: the zero-allocation guarantee of a solve on a lent
// scratch and its behavioural equality with an unlent solve.
//
// TestAllocs is the CI tripwire for the tentpole invariant: a warm
// Engine.Solve — scratch lent, instance already ingested — performs
// zero heap allocations for every session-backed engine. It measures
// through the public Engine seam, so a regression anywhere on the
// path (session, Normalize, Verify, fillBound, the dispatch itself)
// trips it. Set REPLICATREE_SKIP_ALLOC_GATE=1 to skip it temporarily,
// e.g. while bisecting an unrelated failure under instrumented builds
// (-race and -msan builds skip automatically: their instrumentation
// allocates).
//
// TestLentMatchesUnlentCorpus is the metamorphic twin: over the full
// frozen testdata/ corpus, a solve on a lent scratch must return the
// exact Report of an unlent solve (which runs on a one-off scratch) —
// same solution, bound, gap, policy — and repeat it on a re-solve of
// the already-warm scratch. The bound is where the two differ in
// mechanism: a lent, bound scratch computes it on its own tables.

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

func TestAllocs(t *testing.T) {
	if os.Getenv("REPLICATREE_SKIP_ALLOC_GATE") != "" {
		t.Skip("REPLICATREE_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	skipIfInstrumented(t)
	dist := gen.BenchInstance(71, 150, true)
	nod := gen.BenchInstance(73, 150, false)
	ctx := context.Background()
	sc := solver.NewScratch()
	for _, name := range solver.SessionEngines() {
		eng := solver.MustLookup(name)
		in := dist
		if !eng.Capabilities().SupportsDMax {
			in = nod
		}
		req := solver.Request{Instance: in, Scratch: sc}
		// Warm up outside the measurement: the first solve ingests the
		// instance and grows every session buffer.
		if rep, err := eng.Solve(ctx, req); err != nil {
			t.Fatalf("%s: warm-up solve: %v", name, err)
		} else if rep.Solution == nil {
			t.Fatalf("%s: warm-up solve returned no solution", name)
		}
		avg := testing.AllocsPerRun(20, func() {
			rep, err := eng.Solve(ctx, req)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			_ = rep
		})
		if avg != 0 {
			t.Errorf("%s: warm Engine.Solve allocated %.1f times per run, want 0", name, avg)
		}
	}
}

// TestLentMatchesUnlentCorpus solves every corpus instance unlent and
// on a lent scratch through the public Engine seam and requires
// identical Reports, including on a second solve of the already-warm
// scratch.
func TestLentMatchesUnlentCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := solver.NewScratch()
	n := 0
	for _, file := range files {
		if filepath.Base(file) == "manifest.json" {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var in core.Instance
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		n++
		for _, name := range solver.SessionEngines() {
			eng := solver.MustLookup(name)
			unlent, unlentErr := eng.Solve(ctx, solver.Request{Instance: &in})
			lreq := solver.Request{Instance: &in, Scratch: sc}
			for round := 1; round <= 2; round++ {
				lent, lentErr := eng.Solve(ctx, lreq)
				if (unlentErr == nil) != (lentErr == nil) {
					t.Fatalf("%s %s round %d: unlent err %v, lent err %v", file, name, round, unlentErr, lentErr)
				}
				if unlentErr != nil {
					if unlentErr.Error() != lentErr.Error() {
						t.Errorf("%s %s round %d: unlent err %q, lent err %q", file, name, round, unlentErr, lentErr)
					}
					continue
				}
				if !slices.Equal(unlent.Solution.Replicas, lent.Solution.Replicas) ||
					!slices.Equal(unlent.Solution.Assignments, lent.Solution.Assignments) {
					t.Errorf("%s %s round %d: solutions differ\n unlent %v\n lent %v",
						file, name, round, unlent.Solution, lent.Solution)
				}
				if unlent.Policy != lent.Policy || unlent.LowerBound != lent.LowerBound ||
					unlent.Gap != lent.Gap || unlent.Proved != lent.Proved || unlent.Engine != lent.Engine {
					t.Errorf("%s %s round %d: report metadata differs\n unlent %+v\n lent %+v",
						file, name, round, unlent, lent)
				}
			}
		}
	}
	if n < 8 {
		t.Fatalf("corpus has only %d instances", n)
	}
}

// TestScratchPool pins the pooling contract: a pooled scratch is
// reusable across distinct instances, and an invalid instance fails
// ingest on a lent scratch with the same validation error as on an
// unlent one.
func TestScratchPool(t *testing.T) {
	ctx := context.Background()
	eng := solver.MustLookup(solver.SingleGen)
	sc := solver.GetScratch()
	defer solver.PutScratch(sc)
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 5; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10}, true)
		unlent, unlentErr := eng.Solve(ctx, solver.Request{Instance: in})
		lent, lentErr := eng.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
		if unlentErr != nil || lentErr != nil {
			t.Fatalf("instance %d: unlent err %v, lent err %v", i, unlentErr, lentErr)
		}
		if !slices.Equal(unlent.Solution.Replicas, lent.Solution.Replicas) {
			t.Fatalf("instance %d: solutions differ", i)
		}
	}

	// An invalid instance must produce the unlent validation error.
	bad := &core.Instance{Tree: gen.RandomTree(rng, gen.TreeConfig{Internals: 4}), W: 0, DMax: core.NoDistance}
	unlentRep, unlentErr := eng.Solve(ctx, solver.Request{Instance: bad})
	lentRep, lentErr := eng.Solve(ctx, solver.Request{Instance: bad, Scratch: sc})
	if unlentErr == nil || lentErr == nil {
		t.Fatalf("invalid instance accepted: unlent (%v, %v), lent (%v, %v)", unlentRep, unlentErr, lentRep, lentErr)
	}
	if unlentErr.Error() != lentErr.Error() {
		t.Fatalf("invalid instance: unlent err %q, lent err %q", unlentErr, lentErr)
	}
}
