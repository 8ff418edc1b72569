package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func sessionSolEqual(a, b *core.Solution) bool {
	return slices.Equal(a.Replicas, b.Replicas) && slices.Equal(a.Assignments, b.Assignments)
}

// TestWorkspaceSolveMatchesSolve pins that the workspace simplex and
// the throwaway simplex agree bit-for-bit.
func TestWorkspaceSolveMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var w Workspace
	for i := 0; i < 40; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(10),
			MaxArity:  2 + rng.Intn(2),
		}, rng.Intn(2) == 0)
		p, _, _ := buildPlacement(in)
		if p == nil {
			continue
		}
		xCold, objCold, errCold := Solve(p)
		xWarm, objWarm, errWarm := w.Solve(p)
		if (errCold == nil) != (errWarm == nil) {
			t.Fatalf("instance %d: cold err %v, warm err %v", i, errCold, errWarm)
		}
		if errCold != nil {
			continue
		}
		if objCold != objWarm {
			t.Fatalf("instance %d: objective %v != %v", i, objCold, objWarm)
		}
		if !slices.Equal(xCold, xWarm) {
			t.Fatalf("instance %d: solutions differ", i)
		}
	}
}

// sameOutcome fails unless a solve matches the oracle's outcome: the
// same error text, or the same normalized solution.
func sameOutcome(t *testing.T, what string, want *core.Solution, wantErr error, got *core.Solution, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: oracle err %v, got err %v", what, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: oracle err %q, got err %q", what, wantErr, gotErr)
		}
		return
	}
	if !sessionSolEqual(want, got) {
		t.Fatalf("%s:\n oracle %v\n got    %v", what, want, got)
	}
}

// TestLPSessionMatchesOracle pins Placement to the allocating oracle:
// a Session solve, repeated on the same session, and the package-level
// wrapper (validate, flatten, fresh session) return exactly the
// oracle's normalized solution or error text.
func TestLPSessionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var s Session
	var f tree.Flat
	for i := 0; i < 40; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(8),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       6,
			ExtraClients: rng.Intn(3),
		}, rng.Intn(2) == 0)
		tree.FlattenInto(&f, in.Tree)
		s.Reset(in, &f)
		for round := 0; round < 2; round++ {
			want, wantErr := oraclePlacement(in)
			got, gotErr := s.Placement()
			sameOutcome(t, fmt.Sprintf("instance %d round %d: session", i, round), want, wantErr, got, gotErr)
			got, gotErr = Placement(in)
			sameOutcome(t, fmt.Sprintf("instance %d round %d: Placement", i, round), want, wantErr, got, gotErr)
		}
	}
	// The wrapper validates before it flattens.
	bad := &core.Instance{Tree: gen.RandomTree(rng, gen.TreeConfig{Internals: 4}), W: 0, DMax: core.NoDistance}
	want, wantErr := oraclePlacement(bad)
	got, gotErr := Placement(bad)
	sameOutcome(t, "invalid instance: Placement", want, wantErr, got, gotErr)
	if gotErr == nil {
		t.Fatal("Placement accepted W=0")
	}
}

// TestLPSessionAllocFree pins the tentpole invariant: warm Placement
// allocates nothing.
func TestLPSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10, MaxArity: 3}, true)
	f := tree.Flatten(in.Tree)
	var s Session
	s.Reset(in, f)
	if _, err := s.Placement(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Placement(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Placement allocated %.1f times per run", avg)
	}
}
