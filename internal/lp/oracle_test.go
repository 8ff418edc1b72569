package lp

// The allocating spelling of the LP rounding — a throwaway simplex and
// the exact package's max-flow oracle: the reference oracle that
// TestLPSessionMatchesOracle compares the Session and Placement
// against.

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// oraclePlacement is the allocating Placement.
func oraclePlacement(in *core.Instance) (*core.Solution, error) {
	const eps = 1e-7
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p, servers, nx := buildPlacement(in)
	if p == nil { // no requests: the empty solution is optimal
		sol := &core.Solution{}
		sol.Normalize()
		return sol, nil
	}
	x, _, err := Solve(p)
	if err != nil {
		return nil, fmt.Errorf("lp: placement relaxation: %w", err)
	}

	type frac struct {
		s tree.NodeID
		y float64
	}
	var support []frac
	for si, s := range servers {
		if x[nx+si] > eps {
			support = append(support, frac{s, x[nx+si]})
		}
	}
	// Prune least-fractional replicas first: a server the LP barely
	// opened is the one integral capacities most likely cover.
	sort.Slice(support, func(a, b int) bool {
		if support[a].y != support[b].y {
			return support[a].y < support[b].y
		}
		return support[a].s < support[b].s
	})
	R := make([]tree.NodeID, len(support))
	for i, f := range support {
		R[i] = f.s
	}
	if !exact.MultipleFeasible(in, R) {
		// Numerically truncated support (y_s ≤ eps dropped): fall back
		// to every candidate server and let pruning shrink it.
		R = append([]tree.NodeID{}, servers...)
		if !exact.MultipleFeasible(in, R) {
			return nil, fmt.Errorf("lp: instance infeasible under the Multiple policy")
		}
	}
	for i := 0; i < len(R); {
		trial := make([]tree.NodeID, 0, len(R)-1)
		trial = append(trial, R[:i]...)
		trial = append(trial, R[i+1:]...)
		if exact.MultipleFeasible(in, trial) {
			R = trial
		} else {
			i++
		}
	}
	sol, err := exact.MultipleAssignment(in, R)
	if err != nil {
		return nil, fmt.Errorf("lp: assignment on rounded support: %w", err)
	}
	return sol, nil
}
