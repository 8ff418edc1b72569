package multiple

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

func sessionInstance(rng *rand.Rand, binary bool) *core.Instance {
	cfg := gen.TreeConfig{
		Internals:    1 + rng.Intn(25),
		MaxArity:     2 + rng.Intn(3),
		MaxDist:      4,
		MaxReq:       8,
		ExtraClients: rng.Intn(5),
	}
	if binary {
		cfg.MaxArity = 2
		cfg.ExtraClients = 0
	}
	in := gen.RandomInstance(rng, cfg, rng.Intn(2) == 0)
	// Keep ri ≤ W so the preconditions hold on most draws.
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	return in
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

// multipleVariant pairs a package-level function, its Session method
// and its recursive oracle.
type multipleVariant struct {
	name    string
	wrapper func(*core.Instance) (*core.Solution, error)
	session func(*Session) (*core.Solution, error)
	oracle  func(*core.Instance) (*core.Solution, error)
}

var multipleVariants = []multipleVariant{
	{"greedy", Greedy, (*Session).Greedy, oracleGreedy},
	{"lazy", Lazy, (*Session).Lazy, oracleLazy},
	{"best", Best, (*Session).Best, oracleBest},
	{"bin", Bin, (*Session).Bin, oracleBin},
}

// TestMultipleSessionMatchesOracle pins all four variants to the
// recursive oracle: a Session solve, repeated on the same session, and
// the package-level wrapper (validate, flatten, fresh session) return
// exactly the oracle's normalized solution or error text.
func TestMultipleSessionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s Session
	var f tree.Flat
	for i := 0; i < 200; i++ {
		binary := i%2 == 0
		in := sessionInstance(rng, binary)
		tree.FlattenInto(&f, in.Tree)
		s.Reset(in, &f)
		for round := 0; round < 2; round++ {
			for _, v := range multipleVariants {
				if v.name == "bin" && !binary {
					continue
				}
				want, wantErr := v.oracle(in)
				got, gotErr := v.session(&s)
				sameOutcome(t, fmt.Sprintf("instance %d round %d: session %s", i, round, v.name), want, wantErr, got, gotErr)
				got, gotErr = v.wrapper(in)
				sameOutcome(t, fmt.Sprintf("instance %d round %d: package %s", i, round, v.name), want, wantErr, got, gotErr)
			}
		}
	}
	// The wrappers validate before they flatten, and report the
	// oracle's precondition errors (r > W, a non-binary tree for Bin).
	bad := sessionInstance(rng, false)
	for _, in := range []*core.Instance{
		{Tree: bad.Tree, W: 0, DMax: core.NoDistance},
		{Tree: bad.Tree, W: bad.Tree.MaxRequests() - 1, DMax: bad.DMax},
		{Tree: ternaryTree(), W: 5, DMax: core.NoDistance},
	} {
		for _, v := range multipleVariants {
			want, wantErr := v.oracle(in)
			got, gotErr := v.wrapper(in)
			sameOutcome(t, "precondition: package "+v.name, want, wantErr, got, gotErr)
		}
	}
}

// ternaryTree is a root with three clients of two requests each.
func ternaryTree() *tree.Tree {
	b := tree.NewBuilder()
	r := b.Root("")
	b.Client(r, 1, 2, "")
	b.Client(r, 1, 2, "")
	b.Client(r, 1, 2, "")
	return b.MustBuild()
}

// TestMultipleSessionPreconditions pins the precondition errors.
func TestMultipleSessionPreconditions(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	n1 := b.Internal(r, 1, "")
	b.Client(n1, 1, 9, "")
	b.Client(n1, 1, 2, "")
	b.Client(r, 1, 3, "")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	f := tree.Flatten(in.Tree)
	var s Session
	s.Reset(in, f)
	if _, err := s.Greedy(); err == nil {
		t.Fatal("warm Greedy accepted r > W")
	}
	if _, err := s.Bin(); err == nil {
		t.Fatal("warm Bin accepted r > W")
	}

	// Ternary root: Bin must refuse, Greedy must accept.
	in2 := &core.Instance{Tree: ternaryTree(), W: 5, DMax: core.NoDistance}
	f2 := tree.Flatten(in2.Tree)
	s.Reset(in2, f2)
	if _, err := s.Bin(); err == nil {
		t.Fatal("warm Bin accepted a ternary tree")
	}
	if _, err := s.Greedy(); err != nil {
		t.Fatalf("warm Greedy refused a valid instance: %v", err)
	}
}

// TestMultipleSessionAllocFree pins the tentpole invariant: warm
// Greedy/Lazy/Best/Bin allocate nothing.
func TestMultipleSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 2}, true)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	f := tree.Flatten(in.Tree)
	var s Session
	s.Reset(in, f)
	for name, warm := range map[string]func() (*core.Solution, error){
		"bin": s.Bin, "greedy": s.Greedy, "lazy": s.Lazy, "best": s.Best,
	} {
		if _, err := warm(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := warm(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if avg != 0 {
			t.Fatalf("warm %s allocated %.1f times per run", name, avg)
		}
	}
}
