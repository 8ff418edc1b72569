package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// TestScratchVerifyMatchesCore pins Scratch.Verify to core.Verify on
// a scratch bound to the instance (a warm engine ingested it) and on
// one that is not (auto ingests nothing), for a feasible solution and
// for a forged one.
func TestScratchVerifyMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, ExtraClients: 20}, true)
	rep, err := MustLookup(SingleGen).Solve(context.Background(), Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	forged := rep.Solution.Clone()
	forged.Assignments = forged.Assignments[1:]
	bound := NewScratch()
	if err := bound.ingest(in); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*Scratch{"bound": bound, "unbound": NewScratch()} {
		if err := sc.Verify(in, rep.Policy, rep.Solution); err != nil {
			t.Errorf("%s: feasible solution rejected: %v", name, err)
		}
		got, want := sc.Verify(in, rep.Policy, forged), core.Verify(in, rep.Policy, forged)
		if got == nil || !errors.Is(got, core.ErrCoverage) || !errors.Is(want, core.ErrCoverage) {
			t.Errorf("%s: forged solution: Scratch.Verify %v, core.Verify %v", name, got, want)
		}
	}
	if bound.in != in {
		t.Error("verifying unbound the scratch's sessions")
	}
}

// BenchmarkVerifyUnbound compares the miss path's check of an auto
// answer (a scratch no engine bound, which verifies on a one-off flat
// twin) with core.Verify, on a ~300-node tree shaped like the
// benchmark's miss-solve instances.
func BenchmarkVerifyUnbound(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := gen.TreeConfig{Internals: 160, MaxArity: 3, MaxDist: 4, MaxReq: 10, ExtraClients: 65}
	in := &core.Instance{Tree: gen.RandomTree(rng, cfg), W: 60, DMax: 14}
	rep, err := MustLookup(Auto).Solve(context.Background(), Request{Instance: in})
	if err != nil {
		b.Fatal(err)
	}
	sc := GetScratch()
	defer PutScratch(sc)
	verifiers := map[string]func() error{
		"core":    func() error { return core.Verify(in, rep.Policy, rep.Solution) },
		"scratch": func() error { return sc.Verify(in, rep.Policy, rep.Solution) },
	}
	for _, name := range []string{"core", "scratch"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := verifiers[name](); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReboundInstanceRefreshesBound pins that a Report's lower bound
// never comes from a stale flat twin: after single-gen ingests an
// instance on a scratch and the instance's tree is then replaced in
// place, a solve on the same scratch by an engine that ingests nothing
// (multiple-replan) must report the new tree's bound, not the old one.
func TestReboundInstanceRefreshesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	small := gen.RandomTree(rng, gen.TreeConfig{Internals: 2, MaxReq: 2})
	large := gen.RandomTree(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, MaxReq: 10, ExtraClients: 20})
	in := &core.Instance{Tree: small, W: 10, DMax: core.NoDistance}
	ctx := context.Background()
	sc := NewScratch()
	if _, err := MustLookup(SingleGen).Solve(ctx, Request{Instance: in, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	stale := core.LowerBound(in)
	in.Tree = large
	want := core.LowerBound(in)
	if want == stale {
		t.Fatalf("both trees bound at %d; the test needs different bounds", want)
	}
	rep, err := MustLookup(MultipleReplan).Solve(ctx, Request{Instance: in, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LowerBound != want {
		t.Fatalf("rebound instance: Report.LowerBound %d, core.LowerBound %d (stale tree: %d)", rep.LowerBound, want, stale)
	}
}
