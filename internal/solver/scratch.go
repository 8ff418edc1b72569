package solver

import (
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/tree"
)

// Scratch is the working memory of the session-backed engines
// (SessionEngines): the flat SoA twin of an instance plus the
// per-algorithm sessions that implement them. Those engines always
// solve on a Scratch — the one a request lends (Request.Scratch), or a
// one-off one when it lends none. A lent scratch keeps its buffers
// across solves: after the first solve has grown them, a warm solve on
// an already-ingested instance performs zero heap allocations and
// returns the same Report as an unlent solve (TestAllocs pins the
// allocation count, TestLentMatchesUnlentCorpus the Reports).
//
// Ingestion is implicit: each session-backed engine ingests the
// request's instance on first sight, validating it once and building
// the flat SoA twin plus the per-algorithm sessions. Re-solving the
// same *core.Instance (same tree pointer, W and DMax) skips ingestion
// entirely — that is the hot path.
//
// Ownership rules:
//   - A Scratch is NOT safe for concurrent use. Never share one
//     across goroutines (the auto portfolio deliberately strips it
//     from its candidate requests for this reason).
//   - Report.Solution from a solve on a lent scratch points into the
//     scratch and is valid only until the next solve on it. Clone the
//     solution before releasing the scratch with PutScratch.
type Scratch struct {
	// Ingest key: pointer identity of the instance and its tree plus
	// the scalar knobs, so a mutated-in-place instance re-ingests.
	in   *core.Instance
	tr   *tree.Tree
	w    int64
	dmax int64

	flat     tree.Flat
	tables   core.Scratch // alloc-free LowerBound and Verify tables
	single   single.Session
	multiple multiple.Session

	// The LP relaxation is the one ingest product that is expensive to
	// build (it materialises the simplex problem), so it is constructed
	// lazily on the first lp-round solve of each ingested instance.
	lp      lp.Session
	lpBound bool // lp.Reset ran for the current instance
}

// NewScratch returns a fresh unpooled Scratch. Most callers should
// prefer GetScratch/PutScratch, which amortise buffer growth across
// solves process-wide.
func NewScratch() *Scratch { return new(Scratch) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch from the process-wide pool. Return it
// with PutScratch when the solve's solution has been copied out.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the pool. The caller must not touch
// the scratch — including any session-owned Solution obtained from it
// — after the call.
func PutScratch(sc *Scratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// ingest binds the scratch to the instance, validating it and
// (re)building the flat twin and the sessions. Re-ingesting the
// instance the scratch is already bound to is free. Ingestion may
// allocate (buffer growth, LP matrices); only the subsequent solves
// are allocation-free.
func (sc *Scratch) ingest(in *core.Instance) error {
	if sc.bound(in) {
		return nil
	}
	sc.in = nil // stay unbound if validation fails
	if err := in.Validate(); err != nil {
		return err
	}
	tree.FlattenInto(&sc.flat, in.Tree)
	sc.single.Reset(in, &sc.flat)
	sc.multiple.Reset(in, &sc.flat)
	sc.lpBound = false
	sc.in, sc.tr, sc.w, sc.dmax = in, in.Tree, in.W, in.DMax
	return nil
}

// bound reports whether the scratch's flat twin and sessions belong to
// in: the same instance pointer, tree pointer, W and DMax as the last
// ingest. Anything else — including an instance whose Tree, W or DMax
// was changed in place — must be ingested again.
func (sc *Scratch) bound(in *core.Instance) bool {
	return sc.in == in && sc.tr == in.Tree && sc.w == in.W && sc.dmax == in.DMax
}

// Verify checks sol against in exactly like core.Verify, but with the
// scratch's verification tables, so checking a feasible solution of
// an ingested instance allocates nothing once the scratch has grown.
// For an instance the scratch is not bound to (its engine ingested
// nothing, e.g. auto) it verifies on a one-off flat twin, leaving the
// scratch's own twin and sessions as they were. in must be validated,
// as every decoded instance is.
func (sc *Scratch) Verify(in *core.Instance, pol core.Policy, sol *core.Solution) error {
	if !sc.bound(in) {
		return sc.tables.Verify(tree.Flatten(in.Tree), in, pol, sol)
	}
	return sc.tables.Verify(&sc.flat, in, pol, sol)
}

// lpSession returns the LP session, ingesting the current instance on
// its first lp-round solve.
func (sc *Scratch) lpSession() *lp.Session {
	if !sc.lpBound {
		sc.lpBound = true
		sc.lp.Reset(sc.in, &sc.flat)
	}
	return &sc.lp
}
