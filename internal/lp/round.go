package lp

import (
	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Placement rounds the LP relaxation into a feasible Multiple-policy
// solution: solve the relaxation, open every server in the fractional
// support (y_s > eps), prune replicas greedily — least fractional
// first — while the set stays feasible, then recover an integral
// assignment by max-flow (flow integrality guarantees one exists
// whenever the fractional assignment does, because pruning re-checks
// feasibility at the full capacity W).
//
// This is the swappable relaxation-based solver motivated by the
// ℓp-Box ADMM line of work: exact and LP-guided solvers answer the
// same contract, so consumers can trade optimality for speed by name.
func Placement(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var s Session
	s.Reset(in, tree.Flatten(in.Tree))
	sol, err := s.Placement()
	if err != nil {
		return nil, err
	}
	// A copy of the Solution header keeps the solution, not the
	// session's dense LP matrices, alive in the caller.
	out := *sol
	return &out, nil
}
