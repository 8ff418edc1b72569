package tree

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file implements serialisation of trees: a JSON wire format used
// by the CLI tools, and Graphviz DOT export for visual inspection of
// instances and placements.

// jsonNode is the wire representation of a node. The tree is encoded
// as a flat node list plus the root ID, which round-trips the arena
// exactly.
type jsonNode struct {
	ID       NodeID `json:"id"`
	Parent   NodeID `json:"parent"` // -1 for the root
	Dist     int64  `json:"dist"`
	Requests int64  `json:"requests,omitempty"`
	Label    string `json:"label,omitempty"`
}

type jsonTree struct {
	Root  NodeID     `json:"root"`
	Nodes []jsonNode `json:"nodes"`
}

// MarshalJSON encodes the tree as a flat node list.
func (t *Tree) MarshalJSON() ([]byte, error) {
	jt := jsonTree{Root: t.root, Nodes: make([]jsonNode, len(t.nodes))}
	for j := range t.nodes {
		n := &t.nodes[j]
		jt.Nodes[j] = jsonNode{
			ID:       NodeID(j),
			Parent:   n.Parent,
			Dist:     n.Dist,
			Requests: n.Requests,
			Label:    n.Label,
		}
	}
	return json.Marshal(jt)
}

// UnmarshalJSON decodes a tree from the flat node-list format in one
// pass (see Lexer for the accepted grammar) and validates it.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var l Lexer
	l.Reset(data)
	var nt Tree
	if err := nt.decode(&l); err != nil {
		return err
	}
	if err := l.Finish(); err != nil {
		return err
	}
	*t = nt
	return nil
}

// DOT renders the tree in Graphviz format. Nodes listed in replicas are
// drawn filled; a nil set is fine.
func (t *Tree) DOT(replicas map[NodeID]bool) string {
	var b strings.Builder
	b.WriteString("digraph tree {\n  rankdir=BT;\n")
	for j := range t.nodes {
		id := NodeID(j)
		shape := "ellipse"
		label := t.Name(id)
		if t.IsClient(id) {
			shape = "box"
			label = fmt.Sprintf("%s\\nr=%d", label, t.nodes[j].Requests)
		}
		attrs := fmt.Sprintf("shape=%s,label=\"%s\"", shape, label)
		if replicas[id] {
			attrs += ",style=filled,fillcolor=lightblue"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", j, attrs)
	}
	for j := range t.nodes {
		if p := t.nodes[j].Parent; p != None {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", j, p, t.nodes[j].Dist)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact single-line summary, useful in test output.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{nodes=%d clients=%d arity=%d requests=%d}",
		t.Len(), t.NumClients(), t.Arity(), t.TotalRequests())
}
