package solver

import (
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/tree"
)

// Scratch is the reusable working memory of the warm solve path. A
// request that lends one (Request.Scratch) lets the polynomial
// built-in engines — single-gen, single-nod, the multiple-* family and
// lp-round — run on pooled session buffers instead of fresh heap:
// after the first solve has grown the buffers, a warm solve on an
// already-ingested instance performs zero heap allocations and returns
// the same Report the cold path would (the session parity tests in
// internal/single, internal/multiple and internal/lp pin solution
// equality; the TestAllocs gate pins the allocation count).
//
// Ingestion is implicit: each warm-capable engine ingests the
// request's instance on first sight, validating it once and building
// the flat SoA twin plus the per-algorithm sessions. Re-solving the
// same *core.Instance (same tree pointer, W and DMax) skips ingestion
// entirely — that is the hot path.
//
// Ownership rules:
//   - A Scratch is NOT safe for concurrent use. Never share one
//     across goroutines (the auto portfolio deliberately strips it
//     from its candidate requests for this reason).
//   - Report.Solution from a warm solve points into the scratch and
//     is valid only until the next solve on it. Clone the solution
//     before releasing the scratch with PutScratch.
type Scratch struct {
	// Ingest key: pointer identity of the instance and its tree plus
	// the scalar knobs, so a mutated-in-place instance re-ingests.
	in   *core.Instance
	tr   *tree.Tree
	w    int64
	dmax int64

	flat     tree.Flat
	bound    core.Scratch // fillBound's alloc-free LowerBound tables
	single   single.Session
	multiple multiple.Session

	// The LP relaxation is the one ingest product that is expensive to
	// build (it materialises the simplex problem), so it is constructed
	// lazily on the first lp-round solve of each ingested instance.
	lp      lp.Session
	lpBound bool // lp.Reset ran for the current instance
	lpOK    bool // ... and succeeded
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
	if sc.in == in && sc.tr == in.Tree && sc.w == in.W && sc.dmax == in.DMax {
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

// Verify checks sol against in exactly like core.Verify, but with the
// scratch's verification tables, so checking a feasible solution of
// an ingested instance allocates nothing once the scratch has grown.
// For an instance the scratch is not bound to (its engine ingested
// nothing, e.g. auto) it verifies on a one-off flat twin, leaving the
// scratch's own twin and sessions as they were. in must be validated,
// as every decoded instance is.
func (sc *Scratch) Verify(in *core.Instance, pol core.Policy, sol *core.Solution) error {
	if sc.in != in || sc.tr != in.Tree || sc.w != in.W || sc.dmax != in.DMax {
		return sc.bound.Verify(tree.Flatten(in.Tree), in, pol, sol)
	}
	return sc.bound.Verify(&sc.flat, in, pol, sol)
}

// lpSession returns the lazily-ingested LP session, or ok=false when
// the relaxation could not be built (the caller then falls back to the
// cold path, which reproduces the build error verbatim).
func (sc *Scratch) lpSession() (*lp.Session, bool) {
	if !sc.lpBound {
		sc.lpBound = true
		sc.lpOK = sc.lp.Reset(sc.in, &sc.flat) == nil
	}
	return &sc.lp, sc.lpOK
}
