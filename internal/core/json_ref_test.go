package core_test

// Reference decoders for the instance wire formats: the encoding/json
// implementations that the one-pass decoders replaced, kept as
// oracles. FuzzInstanceJSON and FuzzReadChunked check that the
// one-pass decoders agree with them on every input: the same
// accept/reject decision, deeply equal results and equal canonical
// hashes.
//
// refUnmarshalInstance decodes the instance envelope with
// encoding/json, which hands the "tree" value to Tree.UnmarshalJSON;
// the tree decoder itself is checked against its own encoding/json
// oracle by FuzzTreeJSON in internal/tree.
//
// refReadChunked is the old streaming reader with two fixes, made in
// the one-pass reader as well:
//   - each chunk decodes into a fresh value. The old reader reused one
//     chunk buffer, and encoding/json decodes into reused slice
//     elements without zeroing them, so a record that omitted "dist",
//     "requests" or "label" inherited the field from the record at the
//     same index of the previous chunk (TestReadChunkedRecordsDoNotInherit);
//   - the node capacity reserved from the header's count is capped, so
//     a forged count cannot force a huge allocation or a makeslice
//     panic.
// Like the tree oracle, a repeated "nodes" key takes the last array.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

type refInstanceJSON struct {
	Tree *tree.Tree `json:"tree"`
	W    int64      `json:"w"`
	DMax *int64     `json:"dmax,omitempty"`
}

// refUnmarshalInstance is the encoding/json instance decoder.
func refUnmarshalInstance(data []byte) (*core.Instance, error) {
	var j refInstanceJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	ni := &core.Instance{Tree: j.Tree, W: j.W, DMax: core.NoDistance}
	if j.DMax != nil {
		ni.DMax = *j.DMax
	}
	if err := ni.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid instance: %w", err)
	}
	return ni, nil
}

type refChunkedHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	W       int64  `json:"w"`
	DMax    *int64 `json:"dmax,omitempty"`
	Nodes   int    `json:"nodes"`
}

type refChunkedNode struct {
	ID       tree.NodeID `json:"id"`
	Parent   tree.NodeID `json:"parent"`
	Dist     int64       `json:"dist,omitempty"`
	Requests int64       `json:"requests,omitempty"`
	Label    string      `json:"label,omitempty"`
}

// refChunkedNodes decodes each "nodes" array into a fresh slice.
type refChunkedNodes []refChunkedNode

func (n *refChunkedNodes) UnmarshalJSON(data []byte) error {
	var s []refChunkedNode
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*n = s
	return nil
}

type refChunkedChunk struct {
	Nodes refChunkedNodes `json:"nodes"`
}

// refReadChunked is the json.Decoder-based chunked reader.
func refReadChunked(r io.Reader) (*core.FlatInstance, error) {
	dec := json.NewDecoder(r)
	var h refChunkedHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("core: chunked header: %w", err)
	}
	if h.Format != core.ChunkedFormat {
		return nil, fmt.Errorf("core: not a chunked instance stream (format %q)", h.Format)
	}
	if h.Version != core.ChunkedVersion {
		return nil, fmt.Errorf("core: unsupported chunked version %d", h.Version)
	}
	if h.Nodes <= 0 {
		return nil, fmt.Errorf("core: chunked header declares %d nodes", h.Nodes)
	}
	fb := tree.NewFlatBuilder(min(h.Nodes, 1<<20))
	for fb.Len() < h.Nodes {
		var ch refChunkedChunk
		if err := dec.Decode(&ch); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("core: chunked stream truncated: got %d of %d nodes", fb.Len(), h.Nodes)
			}
			return nil, fmt.Errorf("core: chunked stream: %w", err)
		}
		for _, nd := range ch.Nodes {
			if nd.ID != tree.NodeID(fb.Len()) {
				return nil, fmt.Errorf("core: chunked stream: node ID %d out of order (want %d)", nd.ID, fb.Len())
			}
			if _, err := fb.Add(nd.Parent, nd.Dist, nd.Requests, nd.Label); err != nil {
				return nil, err
			}
		}
	}
	f, err := fb.Build()
	if err != nil {
		return nil, err
	}
	fi := &core.FlatInstance{Flat: f, W: h.W, DMax: core.NoDistance}
	if h.DMax != nil {
		fi.DMax = *h.DMax
	}
	if err := fi.Validate(); err != nil {
		return nil, err
	}
	return fi, nil
}

// checkInstanceDecode decodes data with both instance decoders and
// fails on any disagreement.
func checkInstanceDecode(t *testing.T, data []byte) (*core.Instance, error) {
	t.Helper()
	var got core.Instance
	gotErr := got.UnmarshalJSON(data)
	want, wantErr := refUnmarshalInstance(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoders disagree on %q:\none-pass:  %v\nreference: %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("decoders built different instances from %q", data)
	}
	if got.CanonicalHash() != want.CanonicalHash() {
		t.Fatalf("canonical hashes differ for %q", data)
	}
	return &got, nil
}

// checkChunkedDecode reads data with both chunked readers and fails
// on any disagreement.
func checkChunkedDecode(t *testing.T, data []byte) (*core.FlatInstance, error) {
	t.Helper()
	got, gotErr := core.ReadChunked(bytes.NewReader(data))
	want, wantErr := refReadChunked(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("readers disagree on %q:\none-pass:  %v\nreference: %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readers built different instances from %q", data)
	}
	if got.CanonicalHash() != want.CanonicalHash() {
		t.Fatalf("canonical hashes differ for %q", data)
	}
	return got, nil
}

// corpusFiles returns the checked-in instances (every testdata/*.json
// but the golden manifest).
func corpusFiles(tb testing.TB) map[string][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(f)] = data
	}
	return out
}

func FuzzInstanceJSON(f *testing.F) {
	for _, data := range corpusFiles(f) {
		f.Add(data)
	}
	for _, c := range instanceEdgeCases {
		f.Add([]byte(c.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInstanceDecode(t, data)
	})
}

// chunkedSeeds are streams of the checked-in instances at a few chunk
// sizes, plus the hand-written chunked edge cases.
func chunkedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for name, data := range corpusFiles(tb) {
		var in core.Instance
		if err := in.UnmarshalJSON(data); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		fi := &core.FlatInstance{Flat: tree.Flatten(in.Tree), W: in.W, DMax: in.DMax}
		for _, chunk := range []int{1, 3, 0} {
			var buf bytes.Buffer
			if err := core.WriteChunked(&buf, fi, chunk); err != nil {
				continue // not topologically numbered; not streamable
			}
			out = append(out, buf.Bytes())
		}
	}
	for _, c := range chunkedEdgeCases {
		out = append(out, []byte(c.stream))
	}
	return out
}

func FuzzReadChunked(f *testing.F) {
	for _, s := range chunkedSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChunkedDecode(t, data)
	})
}

const tiny = `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":2,"requests":3}]}`

// instanceEdgeCases pin the envelope's corners of encoding/json's
// grammar; ok is the expected decision.
var instanceEdgeCases = []struct {
	name string
	json string
	ok   bool
}{
	{"plain", `{"tree":` + tiny + `,"w":5,"dmax":4}`, true},
	{"nod", `{"tree":` + tiny + `,"w":5}`, true},
	{"null dmax", `{"tree":` + tiny + `,"w":5,"dmax":null}`, true},
	{"dmax then null", `{"tree":` + tiny + `,"w":5,"dmax":4,"dmax":null}`, true},
	{"w then null", `{"tree":` + tiny + `,"w":5,"w":null}`, true},
	{"folded keys", `{"TREE":` + tiny + `,"W":5,"DMax":4}`, true},
	{"escaped keys", `{"\u0074ree":` + tiny + `,"\u0077":5}`, true},
	{"unknown keys", `{"a":{"b":[null,1.5e-3,"x\u00e9"]},"tree":` + tiny + `,"w":5,"z":true}`, true},
	{"duplicate tree", `{"tree":{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]},"tree":` + tiny + `,"w":5}`, true},
	{"whitespace", "\n{ \"tree\" :\t" + tiny + " , \"w\" : 5 }\r\n", true},

	{"null", `null`, false},
	{"empty", ``, false},
	{"array", `[]`, false},
	{"no tree", `{"w":5}`, false},
	{"null tree", `{"tree":null,"w":5}`, false},
	{"tree then null", `{"tree":` + tiny + `,"tree":null,"w":5}`, false},
	{"invalid first tree", `{"tree":{"root":0,"nodes":[]},"tree":` + tiny + `,"w":5}`, false},
	{"number tree", `{"tree":5,"w":5}`, false},
	{"no w", `{"tree":` + tiny + `}`, false},
	{"zero w", `{"tree":` + tiny + `,"w":0}`, false},
	{"negative dmax", `{"tree":` + tiny + `,"w":5,"dmax":-1}`, false},
	{"float w", `{"tree":` + tiny + `,"w":5.0}`, false},
	{"exponent dmax", `{"tree":` + tiny + `,"w":5,"dmax":1e1}`, false},
	{"w overflow", `{"tree":` + tiny + `,"w":9223372036854775808}`, false},
	{"string w", `{"tree":` + tiny + `,"w":"5"}`, false},
	{"trailing data", `{"tree":` + tiny + `,"w":5}]`, false},
	{"trailing value", `{"tree":` + tiny + `,"w":5} {}`, false},
	{"bad unknown value", `{"tree":` + tiny + `,"w":5,"x":[1,]}`, false},
}

func TestInstanceJSONEdgeCases(t *testing.T) {
	for _, c := range instanceEdgeCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checkInstanceDecode(t, []byte(c.json)); (err == nil) != c.ok {
				t.Fatalf("accepted=%v, want %v (err %v)", err == nil, c.ok, err)
			}
		})
	}
	var in core.Instance
	if err := in.UnmarshalJSON([]byte(`{"tree":` + tiny + `,"w":5,"dmax":4,"dmax":null}`)); err != nil || !in.NoD() {
		t.Fatalf("a null dmax after a number must mean NoD: err %v, dmax %d", err, in.DMax)
	}
	if err := in.UnmarshalJSON([]byte(`{"tree":` + tiny + `,"w":7,"w":null}`)); err != nil || in.W != 7 {
		t.Fatalf("a null w must leave the earlier value: err %v, w %d", err, in.W)
	}
}

// TestInstanceJSONCorpus decodes every checked-in instance with both
// decoders.
func TestInstanceJSONCorpus(t *testing.T) {
	for name, data := range corpusFiles(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := checkInstanceDecode(t, data); err != nil {
				t.Fatal(err)
			}
		})
	}
}

const hdr = `{"format":"replicatree-chunked","version":1,"w":9,"dmax":40,"nodes":4}`

// chunkedEdgeCases pin the chunked stream's corners; ok is the
// expected decision.
var chunkedEdgeCases = []struct {
	name   string
	stream string
	ok     bool
}{
	{"plain", hdr + "\n" + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5,"label":"a"}]}` + "\n" + `{"nodes":[{"id":2,"parent":0,"dist":1},{"id":3,"parent":2,"dist":1,"requests":1}]}`, true},
	{"back to back", hdr + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5}]}{"nodes":[{"id":2,"parent":0,"dist":1},{"id":3,"parent":2,"dist":1,"requests":1}]}`, true},
	{"null and empty chunks", hdr + ` null {} {"nodes":null} {"nodes":[]} {"x":[{"}":"]"}],"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5},{"id":2,"parent":0,"dist":1},{"id":3,"parent":2,"dist":1,"requests":1}]}`, true},
	{"garbage after last chunk is never read", hdr + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5},{"id":2,"parent":0,"dist":1},{"id":3,"parent":2,"dist":1,"requests":1}]}xyz{`, true},
	{"more nodes than declared", `{"format":"replicatree-chunked","version":1,"w":9,"nodes":2}{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5},{"id":2,"parent":0,"dist":1,"requests":1}]}`, true},
	{"folded keys and escapes", `{"FORMAT":"replicatree\u002dchunked","Version":1,"W":9,"nodeſ":2}{"NODES":[{"ID":0,"Parent":-1},{"id":1,"parent":0,"requeſts":5,"label":"\u00e9\ud800"}]}`, true},
	{"null dmax", `{"format":"replicatree-chunked","version":1,"w":9,"dmax":3,"dmax":null,"nodes":2}{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":5}]}`, true},

	{"empty", ``, false},
	{"null header", `null`, false},
	{"array header", `[` + hdr + `]`, false},
	{"header only", hdr, false},
	{"truncated chunk", hdr + `{"nodes":[{"id":0,"parent":-1}`, false},
	{"number chunk", hdr + ` 5`, false},
	{"string chunk", hdr + ` "nodes"`, false},
	{"nul chunk", hdr + ` nul`, false},
	{"nullx chunk", hdr + ` nullx`, false},
	{"bad json in chunk", hdr + `{"nodes":[{"id":0,"parent":-1},]}`, false},
	{"float version", `{"format":"replicatree-chunked","version":1.0,"w":9,"nodes":2}{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":5}]}`, false},
	{"huge declared count", `{"format":"replicatree-chunked","version":1,"w":9,"nodes":9223372036854775807}{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":5}]}`, false},
	{"unterminated string", hdr + `{"nodes":[{"id":0,"parent":-1,"label":"a}]}`, false},
	{"control char in string", hdr + "{\"nodes\":[{\"id\":0,\"parent\":-1,\"label\":\"\x01\"}]}", false},
	{"utf-8 bom", "\xef\xbb\xbf" + hdr, false},
}

func TestReadChunkedEdgeCases(t *testing.T) {
	for _, c := range chunkedEdgeCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checkChunkedDecode(t, []byte(c.stream)); (err == nil) != c.ok {
				t.Fatalf("accepted=%v, want %v (err %v)", err == nil, c.ok, err)
			}
		})
	}
}

// TestReadChunkedRecordsDoNotInherit pins the fix of the old reader's
// reused chunk buffer: a record that omits "dist", "requests" or
// "label" gets zero values, not those of the record at the same index
// of the previous chunk.
func TestReadChunkedRecordsDoNotInherit(t *testing.T) {
	stream := hdr + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":5,"label":"a"}]}` +
		`{"nodes":[{"id":2,"parent":0,"dist":1},{"id":3,"parent":2}]}`
	fi, err := core.ReadChunked(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if f := fi.Flat; f.EdgeLens[3] != 0 || f.Reqs[3] != 0 || f.Labels[3] != "" {
		t.Fatalf("node 3 inherited fields: dist %d requests %d label %q", f.EdgeLens[3], f.Reqs[3], f.Labels[3])
	}
}

// oneByteReader hands out one byte per Read, so every value of a
// stream straddles many buffer refills.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

// TestReadChunkedSplitReads streams every seed one byte at a time and
// in one piece; both must decode identically.
func TestReadChunkedSplitReads(t *testing.T) {
	for _, s := range chunkedSeeds(t) {
		whole, werr := core.ReadChunked(bytes.NewReader(s))
		split, serr := core.ReadChunked(oneByteReader{bytes.NewReader(s)})
		if (werr == nil) != (serr == nil) || !reflect.DeepEqual(whole, split) {
			t.Fatalf("split reads changed the result for %q: %v vs %v", s, werr, serr)
		}
	}
}

// errReader fails after its data.
type errReader struct {
	data []byte
	err  error
}

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

// TestReadChunkedReadError surfaces a reader failure mid-stream.
func TestReadChunkedReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := core.ReadChunked(&errReader{data: []byte(hdr + `{"nodes":[{"id":0,`), err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the reader's error", err)
	}
}
