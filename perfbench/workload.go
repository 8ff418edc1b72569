package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/gen"
	"replicatree/internal/service"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// Workload shapes. Every input is a pure function of the run seed, so
// one seed always yields byte-identical request sequences.
const (
	// hit-replay: Zipf(s=1.1) over hitKeys distinct ~200-node trees.
	hitKeys   = 256
	hitZipfS  = 1.1
	hitSeqLen = 1 << 18
	certEvery = 4
	// miss-solve: ~300-node trees, above auto's 192-node exact gate,
	// so no request pays for exact search. missPerSecond bounds the
	// pre-generated sequence; a run that exhausts it ends early.
	missPerSecond = 200
	missWarm      = 8
	// session-churn: one ~2k-node single-gen session per connection;
	// every churnBigEvery-th mutate carries churnBigOps set_requests.
	churnSessions = 2
	churnBigEvery = 8
	churnBigOps   = 8
	churnEngine   = solver.SingleGen
	// huge-decomp: one million-node flat instance.
	decompNodes = 1_000_000
	decompW     = 10_000
	decompDMax  = 16
)

// Instance shapes: the seed draws topology and rates; the node-count
// window (enforced by redrawing), W and dmax are fixed, so every seed
// poses a problem of the same size and difficulty. hit-replay and
// session-churn send a few trees very often, so their node count (and
// with it the client count: internals and extra clients are fixed) is
// exact. W is a few clients' worth, so capacity binds and a changed
// rate can move replicas.
var (
	hitShape   = shape{cfg: gen.TreeConfig{Internals: 110, MaxArity: 3, MaxDist: 4, MaxReq: 10, ExtraClients: 45}, lo: 205, hi: 205, w: 60, dmax: 14}
	missShape  = shape{cfg: gen.TreeConfig{Internals: 160, MaxArity: 3, MaxDist: 4, MaxReq: 10, ExtraClients: 65}, lo: 280, hi: 320, w: 60, dmax: 14}
	churnShape = shape{cfg: gen.TreeConfig{Internals: 1100, MaxArity: 3, MaxDist: 4, MaxReq: 10, ExtraClients: 450}, lo: 2050, hi: 2050, w: 30, dmax: 12}
)

type shape struct {
	cfg     gen.TreeConfig
	lo, hi  int
	w, dmax int64
}

// rng returns the generator of one named input stream: (seed, stream,
// index) hash to an independent math/rand source.
func rng(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// instance draws an instance of the shape, redrawing until its node
// count lies in the shape's window. Every rate is at most MaxReq ≤ W,
// so a replica on each client is always a feasible placement.
func (s shape) instance(r *rand.Rand) *core.Instance {
	for {
		t := gen.RandomTree(r, s.cfg)
		if n := t.Len(); n >= s.lo && n <= s.hi {
			return &core.Instance{Tree: t, W: s.w, DMax: s.dmax}
		}
	}
}

// solveItem is one /v2/solve request together with what a correct
// answer must satisfy.
type solveItem struct {
	in   *core.Instance
	hash string
	lb   int
	body []byte
}

func newSolveItem(in *core.Instance, certificate bool) (solveItem, error) {
	body, err := json.Marshal(service.SolveRequestV2{Solver: solver.Auto, Instance: in, Certificate: certificate})
	if err != nil {
		return solveItem{}, err
	}
	return solveItem{in: in, hash: in.CanonicalHash(), lb: core.LowerBound(in), body: body}, nil
}

// hitWorkload is a Zipf replay over a fixed, pre-warmed key set.
type hitWorkload struct {
	keys  []solveItem // certificate: false
	certs [][]byte    // the same requests with certificate: true
	seq   []uint16    // key index of each sequence position
}

func newHitWorkload(seed int64) (*hitWorkload, error) {
	w := &hitWorkload{}
	seen := map[string]bool{}
	for k := 0; len(w.keys) < hitKeys; k++ {
		in := hitShape.instance(rng(seed, "hit-key", k))
		it, err := newSolveItem(in, false)
		if err != nil {
			return nil, err
		}
		if seen[it.hash] {
			continue
		}
		seen[it.hash] = true
		cb, err := json.Marshal(service.SolveRequestV2{Solver: solver.Auto, Instance: in, Certificate: true})
		if err != nil {
			return nil, err
		}
		w.keys = append(w.keys, it)
		w.certs = append(w.certs, cb)
	}
	z := rand.NewZipf(rng(seed, "hit-seq", 0), hitZipfS, 1, hitKeys-1)
	w.seq = make([]uint16, hitSeqLen)
	for i := range w.seq {
		w.seq[i] = uint16(z.Uint64())
	}
	return w, nil
}

// wantsCert reports whether sequence position i asks for a certificate.
func wantsCert(i int) bool { return i%certEvery == certEvery-1 }

func (w *hitWorkload) body(i int) []byte {
	k := w.seq[i]
	if wantsCert(i) {
		return w.certs[k]
	}
	return w.keys[k].body
}

// missWorkload is a sequence of instances that never repeat within a
// run, plus a few warm-up instances outside the sequence.
type missWorkload struct {
	items []solveItem
	warm  []solveItem
}

func newMissWorkload(seed int64, n int) (*missWorkload, error) {
	w := &missWorkload{}
	seen := map[string]bool{}
	draw := func(stream string, count int) ([]solveItem, error) {
		out := make([]solveItem, 0, count)
		for k := 0; len(out) < count; k++ {
			it, err := newSolveItem(missShape.instance(rng(seed, stream, k)), false)
			if err != nil {
				return nil, err
			}
			if seen[it.hash] {
				continue
			}
			seen[it.hash] = true
			out = append(out, it)
		}
		return out, nil
	}
	var err error
	if w.warm, err = draw("miss-warm", missWarm); err != nil {
		return nil, err
	}
	if w.items, err = draw("miss-seq", n); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *missWorkload) body(i int) []byte { return w.items[i].body }

// churnWorkload holds one session per connection; mutation j of
// session c is a pure function of (seed, c, j).
type churnWorkload struct {
	seed     int64
	sessions []churnSession
}

type churnSession struct {
	in      *core.Instance
	id      string
	put     []byte
	clients []tree.NodeID
}

func newChurnWorkload(seed int64) (*churnWorkload, error) {
	w := &churnWorkload{seed: seed}
	for c := 0; c < churnSessions; c++ {
		in := churnShape.instance(rng(seed, "churn-session", c))
		put, err := json.Marshal(service.InstancePutRequest{Solver: churnEngine, Instance: in})
		if err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, churnSession{in: in, id: in.CanonicalHash(), put: put, clients: in.Tree.Clients()})
	}
	if w.sessions[0].id == w.sessions[1].id {
		return nil, fmt.Errorf("churn sessions share instance %s", w.sessions[0].id)
	}
	return w, nil
}

// mutations returns mutation batch j of session c: set_request on
// random clients, to a rate no larger than W, which keeps every
// client servable by a replica on itself (always feasible).
func (w *churnWorkload) mutations(c, j int) []delta.Mutation {
	s := &w.sessions[c]
	r := rng(w.seed, fmt.Sprintf("churn-mut-%d", c), j)
	n := 1
	if j%churnBigEvery == churnBigEvery-1 {
		n = churnBigOps
	}
	top := min(s.in.W, churnShape.cfg.MaxReq)
	muts := make([]delta.Mutation, n)
	for k := range muts {
		muts[k] = delta.Mutation{
			Op:       delta.OpSetRequest,
			Node:     s.clients[r.Intn(len(s.clients))],
			Requests: 1 + r.Int63n(top),
		}
	}
	return muts
}

func (w *churnWorkload) body(c, j int) []byte {
	b, err := json.Marshal(service.MutateRequest{Mutations: w.mutations(c, j)})
	if err != nil {
		panic(err) // unreachable: plain structs always marshal
	}
	return b
}

// decompWorkload is one million-node instance serialised in the
// chunked wire format.
type decompWorkload struct {
	fi      *core.FlatInstance
	chunked []byte
	lb      int
}

func newDecompWorkload(seed int64, nodes int) (*decompWorkload, error) {
	fi, err := gen.RandomFlatInstance(rng(seed, "decomp", 0), nodes, gen.TreeConfig{}, true)
	if err != nil {
		return nil, err
	}
	fi.W, fi.DMax = decompW, decompDMax
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, core.DefaultChunkNodes); err != nil {
		return nil, err
	}
	return &decompWorkload{fi: fi, chunked: buf.Bytes(), lb: fi.LowerBound()}, nil
}

// shapeLine summarises the instances a workload sends: node, client,
// W and dmax ranges.
func shapeLine(ins []*core.Instance) string {
	var nodes, clients, ws, dmaxes [2]int64
	for i, in := range ins {
		vals := [4]int64{int64(in.Tree.Len()), int64(in.Tree.NumClients()), in.W, in.DMax}
		for k, r := range []*[2]int64{&nodes, &clients, &ws, &dmaxes} {
			if i == 0 || vals[k] < r[0] {
				r[0] = vals[k]
			}
			if i == 0 || vals[k] > r[1] {
				r[1] = vals[k]
			}
		}
	}
	return fmt.Sprintf("instances=%d nodes=%d-%d clients=%d-%d W=%d-%d dmax=%d-%d",
		len(ins), nodes[0], nodes[1], clients[0], clients[1], ws[0], ws[1], dmaxes[0], dmaxes[1])
}

func itemsShapeLine(items []solveItem) string {
	ins := make([]*core.Instance, len(items))
	for i, it := range items {
		ins[i] = it.in
	}
	return shapeLine(ins)
}

func hitShapeLine(w *hitWorkload) string {
	return itemsShapeLine(w.keys) + fmt.Sprintf(" zipf_s=%g certificate_every=%d", hitZipfS, certEvery)
}

func churnShapeLine(w *churnWorkload) string {
	ins := make([]*core.Instance, len(w.sessions))
	for i, s := range w.sessions {
		ins[i] = s.in
	}
	return shapeLine(ins) + fmt.Sprintf(" engine=%s big_batch=%d_every_%d", churnEngine, churnBigOps, churnBigEvery)
}
