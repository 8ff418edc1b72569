package lp

import (
	"fmt"
	"math"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// FractionalReplicas solves the LP relaxation of the Multiple-policy
// placement problem:
//
//	min  Σ_s y_s
//	s.t. Σ_{s ∈ elig(i)} x_{i,s} = r_i           (every client served)
//	     Σ_i x_{i,s} − W·y_s ≤ 0                 (capacity activation)
//	     y_s ≤ 1,  x, y ≥ 0
//
// The integer optimum buys whole replicas, so ⌈LP⌉ is a valid lower
// bound for Multiple (and hence for Single, whose optimum is never
// smaller). Returns the fractional objective.
func FractionalReplicas(in *core.Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	p, _, _ := buildPlacement(in)
	if p == nil {
		return 0, nil
	}
	_, obj, err := Solve(p)
	if err != nil {
		return 0, fmt.Errorf("lp: placement relaxation: %w", err)
	}
	return obj, nil
}

// buildPlacement constructs the placement relaxation. It returns the
// problem, the candidate servers in variable order, and nx, the number
// of x (assignment-arc) variables preceding the y (server-activation)
// block. A nil problem means the instance has no requests. in must be
// valid.
func buildPlacement(in *core.Instance) (p *Problem, servers []tree.NodeID, nx int) {
	t := in.Tree

	// Index clients and candidate servers.
	var clients []tree.NodeID
	elig := make(map[tree.NodeID][]tree.NodeID)
	serverIdx := make(map[tree.NodeID]int)
	for _, c := range t.Clients() {
		if t.Requests(c) == 0 {
			continue
		}
		clients = append(clients, c)
		for _, s := range t.EligibleServers(c, in.DMax) {
			elig[c] = append(elig[c], s)
			if _, ok := serverIdx[s]; !ok {
				serverIdx[s] = len(servers)
				servers = append(servers, s)
			}
		}
	}
	if len(clients) == 0 {
		return nil, nil, 0
	}

	// Variable layout: x arcs first, then y per server.
	type arc struct {
		ci, si int
	}
	var arcs []arc
	arcOf := make(map[[2]int]int)
	for ci, c := range clients {
		for _, s := range elig[c] {
			a := arc{ci, serverIdx[s]}
			arcOf[[2]int{a.ci, a.si}] = len(arcs)
			arcs = append(arcs, a)
		}
	}
	nx = len(arcs)
	ny := len(servers)
	n := nx + ny

	p = &Problem{C: make([]float64, n)}
	for k := 0; k < ny; k++ {
		p.C[nx+k] = 1
	}
	addRow := func(row []float64, b float64, k RowKind) {
		p.A = append(p.A, row)
		p.B = append(p.B, b)
		p.Kind = append(p.Kind, k)
	}
	// Coverage rows.
	for ci, c := range clients {
		row := make([]float64, n)
		for _, s := range elig[c] {
			row[arcOf[[2]int{ci, serverIdx[s]}]] = 1
		}
		addRow(row, float64(t.Requests(c)), EQ)
	}
	// Capacity rows.
	for si := range servers {
		row := make([]float64, n)
		for k, a := range arcs {
			if a.si == si {
				row[k] = 1
			}
		}
		row[nx+si] = -float64(in.W)
		addRow(row, 0, LE)
	}
	// y ≤ 1 rows.
	for si := range servers {
		row := make([]float64, n)
		row[nx+si] = 1
		addRow(row, 1, LE)
	}
	return p, servers, nx
}

// LowerBound returns ⌈FractionalReplicas⌉, a valid lower bound on the
// optimal replica count under either policy (0 on instances with no
// requests). An infeasible LP means the instance itself is infeasible
// under Multiple.
func LowerBound(in *core.Instance) (int, error) {
	obj, err := FractionalReplicas(in)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(obj - 1e-7)), nil
}
