package single

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func solutionsEqual(a, b *core.Solution) bool {
	return slices.Equal(a.Replicas, b.Replicas) && slices.Equal(a.Assignments, b.Assignments)
}

func sessionInstance(rng *rand.Rand) *core.Instance {
	return gen.RandomInstance(rng, gen.TreeConfig{
		Internals:    1 + rng.Intn(30),
		MaxArity:     2 + rng.Intn(3),
		MaxDist:      4,
		MaxReq:       8,
		ExtraClients: rng.Intn(6),
	}, rng.Intn(2) == 0)
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
	if !solutionsEqual(want, got) {
		t.Fatalf("%s: oracle %v != got %v", what, want, got)
	}
}

// TestSessionMatchesOracle pins the Session to the recursive oracle:
// a Session solve, repeated on the same session, and the package-level
// wrapper (validate, flatten, fresh session) all return exactly the
// oracle's normalized solution or error, on many random instances.
func TestSessionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Session
	var f tree.Flat
	for i := 0; i < 200; i++ {
		in := sessionInstance(rng)
		tree.FlattenInto(&f, in.Tree)
		s.Reset(in, &f)
		for round := 0; round < 2; round++ {
			want, wantErr := oracleGen(in)
			got, gotErr := s.Gen()
			sameOutcome(t, fmt.Sprintf("instance %d round %d: session gen", i, round), want, wantErr, got, gotErr)
			got, gotErr = Gen(in)
			sameOutcome(t, fmt.Sprintf("instance %d round %d: Gen", i, round), want, wantErr, got, gotErr)

			want, wantErr = oracleNoD(in)
			got, gotErr = s.NoD()
			sameOutcome(t, fmt.Sprintf("instance %d round %d: session nod", i, round), want, wantErr, got, gotErr)
			got, gotErr = NoD(in)
			sameOutcome(t, fmt.Sprintf("instance %d round %d: NoD", i, round), want, wantErr, got, gotErr)
		}
	}
	// The wrappers validate before they flatten: an invalid instance
	// fails with the oracle's validation error.
	bad := &core.Instance{Tree: sessionInstance(rng).Tree, W: 0, DMax: core.NoDistance}
	want, wantErr := oracleGen(bad)
	got, gotErr := Gen(bad)
	sameOutcome(t, "invalid instance: Gen", want, wantErr, got, gotErr)
	want, wantErr = oracleNoD(bad)
	got, gotErr = NoD(bad)
	sameOutcome(t, "invalid instance: NoD", want, wantErr, got, gotErr)
	if gotErr == nil {
		t.Fatal("NoD accepted W=0")
	}
}

// TestSessionInfeasible pins the error when a client exceeds W.
func TestSessionInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	b.Client(r, 1, 10, "")
	b.Client(r, 1, 2, "")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	f := tree.Flatten(in.Tree)
	var s Session
	s.Reset(in, f)
	if _, err := s.Gen(); err == nil {
		t.Fatal("warm gen accepted an infeasible instance")
	}
	if _, err := s.NoD(); err == nil {
		t.Fatal("warm nod accepted an infeasible instance")
	}
}

// TestSessionAllocFree pins the tentpole invariant at the package
// level: warm Gen and NoD allocate nothing.
func TestSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 20}, true)
	f := tree.Flatten(in.Tree)
	var s Session
	s.Reset(in, f)
	if _, err := s.Gen(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NoD(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Gen(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Gen allocated %.1f times per run", avg)
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := s.NoD(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm NoD allocated %.1f times per run", avg)
	}
}
