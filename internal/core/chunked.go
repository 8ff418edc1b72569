package core

// This file implements the chunked instance representation: a
// streaming wire format plus a flat in-memory instance so a
// million-node tree is ingested piece-by-piece off an io.Reader
// instead of one json.Unmarshal of a full-tree blob. Peak memory on
// the read side is the Flat's parallel arrays plus one chunk of
// decoded node records; there is never a second full-tree copy
// (pointer nodes, raw JSON) resident. cmd/treegen emits the format
// with -stream, cmd/replica consumes it with -stream, and the decomp
// engine solves the resulting FlatInstance without ever building a
// pointer Tree.
//
// Wire layout: a header value followed by any number of chunk values,
// concatenated back-to-back (the natural json.Decoder stream shape):
//
//	{"format":"replicatree-chunked","version":1,"w":9,"dmax":40,"nodes":7}
//	{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":2,"requests":5},...]}
//	{"nodes":[...]}
//
// "dmax" is omitted for NoD instances, mirroring the Instance codec.
// Node records must arrive in dense increasing ID order with every
// parent before its child (the root is ID 0 with parent -1) — exactly
// what preorder emission produces and what tree.FlatBuilder ingests.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"replicatree/internal/tree"
)

// ChunkedFormat is the format tag in the stream header.
const ChunkedFormat = "replicatree-chunked"

// ChunkedVersion is the current wire version.
const ChunkedVersion = 1

// DefaultChunkNodes is the default number of node records per chunk
// value on the write side.
const DefaultChunkNodes = 8192

// FlatInstance is an Instance whose tree lives in SoA form: the
// substrate of the huge-tree path. It is what ReadChunked produces
// and what decomp.SolveFlat consumes.
type FlatInstance struct {
	Flat *tree.Flat
	// W is the per-server capacity, DMax the distance bound
	// (NoDistance for NoD instances), with the same semantics as the
	// Instance fields.
	W    int64
	DMax int64
}

// NoD reports whether the instance ignores distances.
func (fi *FlatInstance) NoD() bool { return fi.DMax == NoDistance }

// Validate checks the parameter invariants (the Flat itself is
// validated at build time).
func (fi *FlatInstance) Validate() error {
	if fi.Flat == nil || fi.Flat.Len() == 0 {
		return errors.New("core: flat instance has no tree")
	}
	if fi.W <= 0 {
		return fmt.Errorf("core: server capacity W must be positive, got %d", fi.W)
	}
	if fi.DMax <= 0 {
		return fmt.Errorf("core: distance bound must be positive or NoDistance, got %d", fi.DMax)
	}
	return nil
}

// Instance materialises the pointer-tree twin. This allocates the
// full pointer tree; the huge-tree paths avoid it and work on the
// Flat directly.
func (fi *FlatInstance) Instance() (*Instance, error) {
	t, err := fi.Flat.Tree()
	if err != nil {
		return nil, err
	}
	return &Instance{Tree: t, W: fi.W, DMax: fi.DMax}, nil
}

// params adapts the flat instance to the Instance-shaped parameter
// views that Scratch.LowerBound/Verify read (they only touch W and
// DMax; the tree comes in separately as the Flat).
func (fi *FlatInstance) params() *Instance {
	return &Instance{W: fi.W, DMax: fi.DMax}
}

// LowerBound computes the subtree-sum lower bound directly on the
// Flat (same value as LowerBound on the pointer twin).
func (fi *FlatInstance) LowerBound() int {
	var sc Scratch
	return sc.LowerBound(fi.Flat, fi.params())
}

// Verify checks sol against the flat instance under pol, with the
// same sentinel errors as the package-level Verify.
func (fi *FlatInstance) Verify(pol Policy, sol *Solution) error {
	var sc Scratch
	return sc.Verify(fi.Flat, fi.params(), pol, sol)
}

// chunkedHeader is the first JSON value of a chunked stream.
type chunkedHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	W       int64  `json:"w"`
	DMax    *int64 `json:"dmax,omitempty"`
	Nodes   int    `json:"nodes"`
}

// chunkedNode is the encoded form of one node record; ReadChunked
// decodes records with tree.NodeRecords, the Tree codec's decoder, so
// the two formats describe nodes identically.
type chunkedNode struct {
	ID       tree.NodeID `json:"id"`
	Parent   tree.NodeID `json:"parent"`
	Dist     int64       `json:"dist,omitempty"`
	Requests int64       `json:"requests,omitempty"`
	Label    string      `json:"label,omitempty"`
}

// chunkedChunk is one chunk value carrying a run of node records.
type chunkedChunk struct {
	Nodes []chunkedNode `json:"nodes"`
}

// WriteChunked emits fi on w in the chunked wire format,
// chunkNodes records per chunk (0 means DefaultChunkNodes). The
// Flat's IDs must be topological (root 0, every parent before its
// child) so a streaming reader can rebuild it in one pass.
func WriteChunked(w io.Writer, fi *FlatInstance, chunkNodes int) error {
	if err := fi.Validate(); err != nil {
		return err
	}
	if chunkNodes <= 0 {
		chunkNodes = DefaultChunkNodes
	}
	f := fi.Flat
	n := f.Len()
	if f.Root() != 0 {
		return fmt.Errorf("core: chunked format needs root ID 0, got %d", f.Root())
	}
	for j := 1; j < n; j++ {
		if p := f.Parents[j]; p < 0 || p >= tree.NodeID(j) {
			return fmt.Errorf("core: chunked format needs topological IDs; node %d has parent %d", j, p)
		}
	}
	enc := json.NewEncoder(w)
	h := chunkedHeader{Format: ChunkedFormat, Version: ChunkedVersion, W: fi.W, Nodes: n}
	if !fi.NoD() {
		d := fi.DMax
		h.DMax = &d
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	buf := make([]chunkedNode, 0, chunkNodes)
	for j := 0; j < n; j++ {
		nd := chunkedNode{
			ID:       tree.NodeID(j),
			Parent:   f.Parents[j],
			Dist:     f.EdgeLens[j],
			Requests: f.Reqs[j],
			Label:    f.Labels[j],
		}
		if j == 0 {
			nd.Parent = tree.None
			nd.Dist = 0
		}
		buf = append(buf, nd)
		if len(buf) == chunkNodes {
			if err := enc.Encode(chunkedChunk{Nodes: buf}); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		return enc.Encode(chunkedChunk{Nodes: buf})
	}
	return nil
}

// headerFields and chunkFields are the field names of the header and
// chunk values, in ReadChunked's case order.
var (
	headerFields = []string{"format", "version", "w", "dmax", "nodes"}
	chunkFields  = []string{"nodes"}
)

// maxChunkedPrealloc caps the node capacity ReadChunked reserves up
// front from the header's declared count; larger trees grow by
// append, so a forged header cannot force a huge allocation.
const maxChunkedPrealloc = 1 << 20

// ReadChunked ingests a chunked stream from r and returns the rebuilt
// flat instance. Decoding is incremental: a json.Decoder frames one
// value at a time into a reused raw buffer, so one chunk is resident,
// and its node records are decoded by the same record decoder as the
// Tree codec (tree.NodeRecords) and fed to a tree.FlatBuilder.
// Decoding stops once the declared node count has arrived; values
// after that chunk are never decoded.
func ReadChunked(r io.Reader) (*FlatInstance, error) {
	dec := json.NewDecoder(r)
	var val json.RawMessage
	if err := dec.Decode(&val); err != nil {
		return nil, fmt.Errorf("core: chunked header: %w", err)
	}
	var l tree.Lexer
	fi, nodes, err := decodeChunkedHeader(&l, val)
	if err != nil {
		return nil, err
	}
	fb := tree.NewFlatBuilder(int(min(nodes, maxChunkedPrealloc)))
	var recs tree.NodeRecords
	for int64(fb.Len()) < nodes {
		if err := dec.Decode(&val); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("core: chunked stream truncated: got %d of %d nodes", fb.Len(), nodes)
			}
			return nil, fmt.Errorf("core: chunked stream: %w", err)
		}
		if err := decodeChunk(&l, val, &recs); err != nil {
			return nil, fmt.Errorf("core: chunked stream: %w", err)
		}
		for i := 0; i < recs.Len(); i++ {
			id, parent, dist, requests, label := recs.Record(i)
			if id != tree.NodeID(fb.Len()) {
				return nil, fmt.Errorf("core: chunked stream: node ID %d out of order (want %d)", id, fb.Len())
			}
			if _, err := fb.Add(parent, dist, requests, label); err != nil {
				return nil, err
			}
		}
	}
	f, err := fb.Build()
	if err != nil {
		return nil, err
	}
	fi.Flat = f
	if err := fi.Validate(); err != nil {
		return nil, err
	}
	return fi, nil
}

// decodeChunkedHeader decodes and checks the header value, returning
// the instance parameters and the declared node count.
func decodeChunkedHeader(l *tree.Lexer, val []byte) (*FlatInstance, int64, error) {
	var (
		format         string
		version, nodes int64
		fi             = &FlatInstance{DMax: NoDistance}
	)
	l.Reset(val)
	if !l.Null() {
		for f := l.Object(headerFields); f != tree.End; f = l.More(headerFields) {
			switch f {
			case 0: // format
				if s, ok := l.ReadString(); ok {
					format = string(s)
				}
			case 1: // version
				l.ReadInt(&version, strconv.IntSize)
			case 2: // w
				l.ReadInt(&fi.W, 64)
			case 3: // dmax
				if l.Null() {
					fi.DMax = NoDistance
					continue
				}
				l.ReadInt(&fi.DMax, 64)
			case 4: // nodes
				l.ReadInt(&nodes, strconv.IntSize)
			default:
				l.Skip()
			}
		}
	}
	if err := l.Finish(); err != nil {
		return nil, 0, fmt.Errorf("core: chunked header: %w", err)
	}
	if format != ChunkedFormat {
		return nil, 0, fmt.Errorf("core: not a chunked instance stream (format %q)", format)
	}
	if version != ChunkedVersion {
		return nil, 0, fmt.Errorf("core: unsupported chunked version %d", version)
	}
	if nodes <= 0 {
		return nil, 0, fmt.Errorf("core: chunked header declares %d nodes", nodes)
	}
	return fi, nodes, nil
}

// decodeChunk decodes one chunk value's node records into recs (none
// for a null chunk or one without "nodes").
func decodeChunk(l *tree.Lexer, val []byte, recs *tree.NodeRecords) error {
	l.Reset(val)
	recs.Reset()
	if !l.Null() {
		for f := l.Object(chunkFields); f != tree.End; f = l.More(chunkFields) {
			if f == 0 { // nodes
				recs.Decode(l)
			} else {
				l.Skip()
			}
		}
	}
	return l.Finish()
}
