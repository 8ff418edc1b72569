package solver

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"replicatree/internal/core"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := List()
	if len(names) < 8 {
		t.Fatalf("List() = %d solvers, want >= 8: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("List() not sorted: %v", names)
	}
	for _, want := range []string{
		SingleGen, SingleNoD, SinglePassUp, SingleBest, SinglePushUp,
		MultipleBin, MultipleLazy, MultipleBest, MultipleGreedy,
		ExactSingle, ExactMultiple, LPRound, HeteroGreedy, HeteroExact,
	} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("built-in %q missing: %v", want, err)
		}
	}
	if len(Engines()) != len(names) {
		t.Errorf("Engines() returned %d entries for %d names", len(Engines()), len(names))
	}
}

// trivialEngine is a throwaway engine under the given name.
func trivialEngine(name string) Engine {
	return NewEngine(Capabilities{Name: name, Policy: core.Single, SupportsDMax: true},
		func(_ context.Context, req Request) (*core.Solution, int64, error) {
			return core.Trivial(req.Instance), 0, nil
		})
}

func TestRegisterRejectsCollisionsAndNil(t *testing.T) {
	if err := RegisterEngine(nil); err == nil {
		t.Error("RegisterEngine(nil) should fail")
	}
	if err := RegisterEngine(trivialEngine("")); err == nil {
		t.Error("RegisterEngine with empty name should fail")
	}
	if err := RegisterEngine(trivialEngine(SingleGen)); err == nil {
		t.Error("duplicate registration should fail")
	} else if !strings.Contains(err.Error(), SingleGen) {
		t.Errorf("duplicate error should name the solver: %v", err)
	}
	// A fresh name registers and is visible to Lookup and List. The
	// registry is process-global with no Unregister, so the name must
	// be unique per invocation (go test -count=N reuses the process).
	name := fmt.Sprintf("test-tmp-solver-%d", atomic.AddInt32(&tmpSolverSeq, 1))
	tmp := trivialEngine(name)
	if err := RegisterEngine(tmp); err != nil {
		t.Fatalf("fresh registration failed: %v", err)
	}
	if err := RegisterEngine(tmp); err == nil {
		t.Error("re-registration should fail")
	}
	if got, err := Lookup(name); err != nil || got != tmp {
		t.Errorf("registered engine not found by Lookup: %v", err)
	}
	if !slices.Contains(List(), name) {
		t.Errorf("registered engine %q missing from List()", name)
	}
}

var tmpSolverSeq int32

func TestGetUnknownListsKnown(t *testing.T) {
	_, err := Lookup("no-such-solver")
	if err == nil {
		t.Fatal("unknown solver should fail")
	}
	if !strings.Contains(err.Error(), SingleGen) || !strings.Contains(err.Error(), "no-such-solver") {
		t.Errorf("error should name the typo and the known set: %v", err)
	}
}

func TestPolicyAndExactMetadata(t *testing.T) {
	cases := []struct {
		name  string
		pol   core.Policy
		exact bool
	}{
		{SingleGen, core.Single, false},
		{SingleNoD, core.Single, false},
		{ExactSingle, core.Single, true},
		{MultipleBest, core.Multiple, false},
		{ExactMultiple, core.Multiple, true},
		{LPRound, core.Multiple, false},
		{HeteroGreedy, core.Multiple, false},
		{HeteroExact, core.Multiple, true},
	}
	for _, c := range cases {
		caps := MustLookup(c.name).Capabilities()
		if caps.Policy != c.pol {
			t.Errorf("%s: policy = %v, want %v", c.name, caps.Policy, c.pol)
		}
		if caps.Exact != c.exact {
			t.Errorf("%s: exact = %v, want %v", c.name, caps.Exact, c.exact)
		}
	}
}

func TestNoDGating(t *testing.T) {
	in := withDistanceInstance(t)
	for _, name := range []string{SingleNoD, SinglePassUp, SingleBest, SinglePushUp} {
		if _, err := MustLookup(name).Solve(context.Background(), Request{Instance: in}); err == nil {
			t.Errorf("%s on a distance-constrained instance should fail", name)
		}
	}
}

func TestSolveHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MustLookup(SingleGen).Solve(ctx, Request{Instance: nodInstance(t)}); err == nil {
		t.Error("cancelled context should fail before solving")
	}
}
