package tree

// The reference tree decoder: the encoding/json implementation that
// Tree.UnmarshalJSON replaced, kept as the oracle of the one-pass
// decoder. FuzzTreeJSON checks the two agree on every input: the same
// accept/reject decision and deeply equal trees. refValidate is the
// recursive Validate the iterative walk replaced.
//
// One deliberate difference from the code it replaced: a repeated
// "nodes" key takes the last array. encoding/json decodes a repeated
// slice field into the previous backing array without zeroing the
// elements, so the old decoder merged the two arrays' records field by
// field; the one-pass decoder (and this oracle, through refNodes)
// lets the last array win, as every other repeated field does.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

type refNode struct {
	ID       NodeID `json:"id"`
	Parent   NodeID `json:"parent"`
	Dist     int64  `json:"dist"`
	Requests int64  `json:"requests,omitempty"`
	Label    string `json:"label,omitempty"`
}

// refNodes decodes each "nodes" array into a fresh slice.
type refNodes []refNode

func (n *refNodes) UnmarshalJSON(data []byte) error {
	var s []refNode
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*n = s
	return nil
}

type refTree struct {
	Root  NodeID   `json:"root"`
	Nodes refNodes `json:"nodes"`
}

// refUnmarshalTree is the encoding/json tree decoder.
func refUnmarshalTree(data []byte) (*Tree, error) {
	var jt refTree
	if err := json.Unmarshal(data, &jt); err != nil {
		return nil, err
	}
	nodes := make([]Node, len(jt.Nodes))
	for _, jn := range jt.Nodes {
		if jn.ID < 0 || int(jn.ID) >= len(nodes) {
			return nil, fmt.Errorf("tree: json node id %d out of range [0,%d)", jn.ID, len(nodes))
		}
		nodes[jn.ID] = Node{Parent: jn.Parent, Dist: jn.Dist, Requests: jn.Requests, Label: jn.Label}
	}
	for _, jn := range jt.Nodes {
		if jn.Parent != None {
			if jn.Parent < 0 || int(jn.Parent) >= len(nodes) {
				return nil, fmt.Errorf("tree: json node %d has out-of-range parent %d", jn.ID, jn.Parent)
			}
			nodes[jn.Parent].Children = append(nodes[jn.Parent].Children, jn.ID)
		}
	}
	for j := range nodes {
		sort.Slice(nodes[j].Children, func(a, b int) bool {
			return nodes[j].Children[a] < nodes[j].Children[b]
		})
	}
	nt := &Tree{nodes: nodes, root: jt.Root}
	if err := nt.refValidate(); err != nil {
		return nil, err
	}
	return nt, nil
}

// refValidate is the recursive structural check.
func (t *Tree) refValidate() error {
	if len(t.nodes) == 0 {
		return errors.New("tree: empty tree")
	}
	if !t.Valid(t.root) {
		return fmt.Errorf("tree: root %d out of range", t.root)
	}
	if t.nodes[t.root].Parent != None {
		return fmt.Errorf("tree: root %d has a parent", t.root)
	}
	if len(t.nodes[t.root].Children) == 0 {
		return errors.New("tree: root must be an internal node (paper: r ∈ N)")
	}
	seen := make([]bool, len(t.nodes))
	var walk func(j NodeID) error
	walk = func(j NodeID) error {
		if seen[j] {
			return fmt.Errorf("tree: node %d reached twice (cycle or shared child)", j)
		}
		seen[j] = true
		n := &t.nodes[j]
		if n.Requests < 0 {
			return fmt.Errorf("tree: node %d has negative requests %d", j, n.Requests)
		}
		if j != t.root {
			if n.Dist < 0 {
				return fmt.Errorf("tree: node %d has negative edge length %d", j, n.Dist)
			}
			if n.Dist == Infinity {
				return fmt.Errorf("tree: node %d has infinite edge length", j)
			}
		}
		if len(n.Children) == 0 {
			return nil
		}
		if n.Requests != 0 {
			return fmt.Errorf("tree: internal node %d has requests %d", j, n.Requests)
		}
		for _, c := range n.Children {
			if !t.Valid(c) {
				return fmt.Errorf("tree: node %d has out-of-range child %d", j, c)
			}
			if t.nodes[c].Parent != j {
				return fmt.Errorf("tree: child %d of %d has parent %d", c, j, t.nodes[c].Parent)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	for j := range seen {
		if !seen[j] {
			return fmt.Errorf("tree: node %d unreachable from root", j)
		}
	}
	return nil
}

// checkTreeDecode decodes data with both decoders and fails on any
// disagreement.
func checkTreeDecode(t *testing.T, data []byte) (*Tree, error) {
	t.Helper()
	var got Tree
	gotErr := got.UnmarshalJSON(data)
	want, wantErr := refUnmarshalTree(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoders disagree on %q:\none-pass:  %v\nreference: %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("decoders built different trees from %q:\none-pass:  %+v\nreference: %+v", data, got.nodes, want.nodes)
	}
	return &got, nil
}

// treeSeeds are the tree values of the checked-in instances plus the
// hand-written edge cases of TestTreeJSONEdgeCases.
func treeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		var in struct {
			Tree json.RawMessage `json:"tree"`
		}
		if json.Unmarshal(data, &in) == nil && in.Tree != nil {
			out = append(out, in.Tree)
		}
	}
	for _, c := range treeEdgeCases {
		out = append(out, []byte(c.json))
	}
	return out
}

func FuzzTreeJSON(f *testing.F) {
	for _, s := range treeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := checkTreeDecode(t, data)
		if err != nil {
			return
		}
		// An accepted tree re-encodes to an equal tree.
		back, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var rt Tree
		if err := rt.UnmarshalJSON(back); err != nil || !reflect.DeepEqual(&rt, tr) {
			t.Fatalf("round trip of %q failed: %v", data, err)
		}
	})
}

// treeEdgeCases pin the corners of encoding/json's grammar the
// one-pass decoder reproduces; ok is the expected decision.
var treeEdgeCases = []struct {
	name string
	json string
	ok   bool
}{
	{"plain", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":2,"requests":5,"label":"c"}]}`, true},
	{"ids out of order", `{"root":1,"nodes":[{"id":2,"parent":1,"dist":1,"requests":3},{"id":0,"parent":1,"dist":1},{"id":1,"parent":-1},{"id":3,"parent":0,"dist":2,"requests":1}]}`, true},
	{"whitespace", " \t\n{ \"root\" : 0 ,\r\n\"nodes\" : [ { \"id\" : 0 , \"parent\" : -1 } , {\"id\":1,\"parent\":0} ] }\n ", true},
	{"case-folded keys", `{"ROOT":0,"Nodes":[{"ID":0,"PARENT":-1},{"Id":1,"pArEnT":0,"DIST":2,"Requests":5,"LABEL":"x"}]}`, true},
	{"long s folds to s", `{"root":0,"nodeſ":[{"id":0,"parent":-1},{"id":1,"parent":0,"diſt":2,"requeſtſ":5}]}`, true},
	{"kelvin sign is not a field letter", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"Kind":2}]}`, true},
	{"folded then exact key, last wins", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"DIST":7,"dist":2}]}`, true},
	{"escaped keys", `{"r\u006f\u006ft":0,"\u006eodes":[{"\u0069d":0,"parent":-1},{"id":1,"parent":0,"\u0064ist":2}]}`, true},
	{"escaped label", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00"},{"id":1,"parent":0}]}`, true},
	{"invalid utf-8 label", "{\"root\":0,\"nodes\":[{\"id\":0,\"parent\":-1,\"label\":\"a\xffb\xed\xa0\x80\"},{\"id\":1,\"parent\":0}]}", true},
	{"lone surrogates", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":"\ud800x\udc00\ud800\u0041"},{"id":1,"parent":0}]}`, true},
	{"invalid utf-8 key", "{\"root\":0,\"nodes\":[{\"id\":0,\"parent\":-1,\"i\xffd\":9},{\"id\":1,\"parent\":0}]}", true},
	{"unknown keys", `{"root":0,"x":{"a":[1,2.5e3,true,false,null,"s",{}]},"nodes":[{"id":0,"parent":-1,"extra":[[]]},{"id":1,"parent":0}]}`, true},
	{"null fields keep values", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":"r","label":null},{"id":1,"parent":0,"dist":3,"dist":null,"requests":null}],"root":null}`, true},
	{"duplicate keys last wins", `{"root":5,"root":0,"nodes":[{"id":0,"parent":-1}],"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":4,"dist":1}]}`, true},
	{"null nodes then array", `{"root":0,"nodes":null,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]}`, true},
	{"negative zero", `{"root":-0,"nodes":[{"id":-0,"parent":-1},{"id":1,"parent":0,"dist":-0}]}`, true},
	{"root dist kept verbatim", `{"root":0,"nodes":[{"id":0,"parent":-1,"dist":-5},{"id":1,"parent":0}]}`, true},
	{"18 and 19 digit ints", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":999999999999999999,"requests":1000000000000000000}]}`, true},
	{"int64 extremes", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":9223372036854775806,"requests":9223372036854775807}]}`, true},

	{"null", `null`, false},
	{"empty", ``, false},
	{"not an object", `[1]`, false},
	{"string", `"tree"`, false},
	{"no nodes", `{"root":0}`, false},
	{"null record", `{"root":0,"nodes":[{"id":0,"parent":-1},null]}`, false},
	{"duplicate node id", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0},{"id":1,"parent":0}]}`, false},
	{"id out of range", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":2,"parent":0}]}`, false},
	{"parent out of range", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":-2}]}`, false},
	{"cycle", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":2},{"id":2,"parent":1},{"id":3,"parent":0}]}`, false},
	{"second root", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":-1},{"id":2,"parent":0}]}`, false},
	{"float id", `{"root":0,"nodes":[{"id":0.0,"parent":-1},{"id":1,"parent":0}]}`, false},
	{"exponent dist", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":1e2}]}`, false},
	{"int32 overflow", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":2147483648}]}`, false},
	{"int32 max parent", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":2147483647}]}`, false},
	{"int32 min id", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":-2147483648,"parent":0}]}`, false},
	{"int32 underflow", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":-2147483649}]}`, false},
	{"int64 overflow", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":9223372036854775808}]}`, false},
	{"huge number", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":100000000000000000000000}]}`, false},
	{"infinite dist", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":9223372036854775807}]}`, false},
	{"string number", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":"0"}]}`, false},
	{"bool label", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":true},{"id":1,"parent":0}]}`, false},
	{"leading zero", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":01,"parent":0}]}`, false},
	{"plus sign", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":+1,"parent":0}]}`, false},
	{"trailing data", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]}x`, false},
	{"two values", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]}{}`, false},
	{"trailing comma", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0},]}`, false},
	{"bad escape", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":"\x"},{"id":1,"parent":0}]}`, false},
	{"short unicode escape", `{"root":0,"nodes":[{"id":0,"parent":-1,"label":"\u12"},{"id":1,"parent":0}]}`, false},
	{"control char in label", "{\"root\":0,\"nodes\":[{\"id\":0,\"parent\":-1,\"label\":\"a\tb\"},{\"id\":1,\"parent\":0}]}", false},
	{"bad literal in unknown key", `{"root":0,"x":nul,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]}`, false},
	{"unterminated", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}`, false},
	{"internal node with requests", `{"root":0,"nodes":[{"id":0,"parent":-1,"requests":1},{"id":1,"parent":0}]}`, false},
	{"negative requests", `{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":-1}]}`, false},
	{"leaf root", `{"root":0,"nodes":[{"id":0,"parent":-1}]}`, false},
	{"utf-8 bom", "\xef\xbb\xbf{\"root\":0,\"nodes\":[{\"id\":0,\"parent\":-1},{\"id\":1,\"parent\":0}]}", false},
}

func TestTreeJSONEdgeCases(t *testing.T) {
	for _, c := range treeEdgeCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checkTreeDecode(t, []byte(c.json)); (err == nil) != c.ok {
				t.Fatalf("accepted=%v, want %v (err %v)", err == nil, c.ok, err)
			}
		})
	}
}

// TestTreeJSONEdgeCaseValues pins what the accepted corner cases
// decode to.
func TestTreeJSONEdgeCaseValues(t *testing.T) {
	decode := func(s string) *Tree {
		t.Helper()
		var tr Tree
		if err := tr.UnmarshalJSON([]byte(s)); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return &tr
	}
	for _, c := range treeEdgeCases {
		if !c.ok {
			continue
		}
		tr := decode(c.json)
		switch c.name {
		case "folded then exact key, last wins":
			if tr.Dist(1) != 2 {
				t.Errorf("%s: dist %d, want 2", c.name, tr.Dist(1))
			}
		case "escaped label":
			if want := "a\"b\\c/d\b\f\n\r\té😀"; tr.Label(0) != want {
				t.Errorf("%s: label %q, want %q", c.name, tr.Label(0), want)
			}
		case "invalid utf-8 label":
			if want := "a\uFFFDb\uFFFD\uFFFD\uFFFD"; tr.Label(0) != want {
				t.Errorf("%s: label %q, want %q", c.name, tr.Label(0), want)
			}
		case "lone surrogates":
			if want := "\uFFFDx\uFFFD\uFFFDA"; tr.Label(0) != want {
				t.Errorf("%s: label %q, want %q", c.name, tr.Label(0), want)
			}
		case "null fields keep values":
			if tr.Label(0) != "r" || tr.Dist(1) != 3 {
				t.Errorf("%s: label %q dist %d, want \"r\" 3", c.name, tr.Label(0), tr.Dist(1))
			}
		case "duplicate keys last wins":
			if tr.Len() != 2 || tr.Dist(1) != 1 {
				t.Errorf("%s: %d nodes, dist %d; want 2 nodes, dist 1", c.name, tr.Len(), tr.Dist(1))
			}
		case "long s folds to s":
			if tr.Dist(1) != 2 || tr.Requests(1) != 5 {
				t.Errorf("%s: dist %d requests %d, want 2 5", c.name, tr.Dist(1), tr.Requests(1))
			}
		case "root dist kept verbatim":
			if tr.nodes[0].Dist != -5 {
				t.Errorf("%s: stored root dist %d, want -5", c.name, tr.nodes[0].Dist)
			}
		}
	}
}

// TestTreeJSONNestingLimit pins encoding/json's depth limit of 10000
// nested values, counted from the decoded value's root.
func TestTreeJSONNestingLimit(t *testing.T) {
	wrap := func(depth int) []byte {
		// The tree object is level 1, the unknown value's arrays the rest.
		return []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) +
			`,"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0}]}`)
	}
	if _, err := checkTreeDecode(t, wrap(10000)); err != nil {
		t.Fatalf("depth 10000 rejected: %v", err)
	}
	if _, err := checkTreeDecode(t, wrap(10001)); err == nil {
		t.Fatal("depth 10001 accepted")
	}
}

// TestTreeJSONDeepCaterpillar decodes a 200k-deep path (a caterpillar:
// every spine node also carries one client) through both decoders;
// the iterative validation must not depend on recursion depth.
func TestTreeJSONDeepCaterpillar(t *testing.T) {
	const spine = 200000
	var b strings.Builder
	b.WriteString(`{"root":0,"nodes":[{"id":0,"parent":-1}`)
	id := 1
	parent := 0
	for i := 0; i < spine; i++ {
		fmt.Fprintf(&b, `,{"id":%d,"parent":%d,"dist":1,"requests":1}`, id, parent) // the client
		fmt.Fprintf(&b, `,{"id":%d,"parent":%d,"dist":1}`, id+1, parent)            // the next spine node
		parent = id + 1
		id += 2
	}
	fmt.Fprintf(&b, `,{"id":%d,"parent":%d,"dist":1,"requests":1}]}`, id, parent)
	tr, err := checkTreeDecode(t, []byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Depth(NodeID(id)); got != spine+1 {
		t.Fatalf("deepest client at depth %d, want %d", got, spine+1)
	}
}

// TestValidateMatchesRecursive pins the iterative Validate to the
// recursive reference on hand-broken arenas, error text included.
func TestValidateMatchesRecursive(t *testing.T) {
	good := sample(t)
	cases := map[string]func(*Tree){
		"valid":             func(*Tree) {},
		"shared child":      func(tr *Tree) { tr.nodes[2].Children = append(tr.nodes[2].Children, tr.nodes[1].Children[0]) },
		"parent mismatch":   func(tr *Tree) { tr.nodes[3].Parent = 2 },
		"out-of-range kid":  func(tr *Tree) { tr.nodes[2].Children = append(tr.nodes[2].Children, 99) },
		"negative dist":     func(tr *Tree) { tr.nodes[4].Dist = -1 },
		"internal requests": func(tr *Tree) { tr.nodes[1].Requests = 1 },
		"unreachable":       func(tr *Tree) { tr.nodes[2].Children = nil; tr.nodes[2].Requests = 0 },
	}
	for name, mutate := range cases {
		tr := good.Clone()
		mutate(tr)
		got, want := tr.Validate(), tr.refValidate()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Validate = %v, recursive reference = %v", name, got, want)
		}
	}
}
