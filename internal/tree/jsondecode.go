package tree

import (
	"fmt"
	"sync"
)

// This file holds the one node-record decoder of the JSON wire
// formats and the tree decoder built on it. A tree's "nodes" array
// and a chunked stream's chunk arrays carry the same records, so both
// decode through NodeRecords; the tree decoder then fills the pointer
// arena in place: nodes land at their IDs, and children are laid out
// in ascending ID order in one shared backing array — no sorting and
// no per-node slice allocation.

// NodeRecords is one decoded "nodes" array: the records in arrival
// order, with every label packed into a single string. It is reusable;
// each Decode replaces the previous contents.
type NodeRecords struct {
	recs   []nodeRecord
	arena  []byte
	labels string
}

// recordFields are a node record's field names, in Decode's case order.
var recordFields = []string{"id", "parent", "dist", "requests", "label"}

type nodeRecord struct {
	id, parent         NodeID
	dist, requests     int64
	labelOff, labelLen int
}

// Decode reads a "nodes" value at the lexer's cursor: an array of
// node records or null (no records). A record has the fields "id",
// "parent", "dist", "requests" and "label"; absent fields are zero
// and a null record is an all-zero record, as in encoding/json.
func (nr *NodeRecords) Decode(l *Lexer) {
	nr.Reset()
	if l.Null() {
		return
	}
	for more := l.array(); more; more = l.moreItems() {
		nr.recs = append(nr.recs, nodeRecord{})
		r := &nr.recs[len(nr.recs)-1]
		if l.Null() {
			continue
		}
		for f := l.Object(recordFields); f != End; f = l.More(recordFields) {
			switch f {
			case 0: // id
				l.readNodeID(&r.id)
			case 1: // parent
				l.readNodeID(&r.parent)
			case 2: // dist
				l.ReadInt(&r.dist, 64)
			case 3: // requests
				l.ReadInt(&r.requests, 64)
			case 4: // label
				if s, ok := l.ReadString(); ok {
					r.labelOff, r.labelLen = len(nr.arena), len(s)
					nr.arena = append(nr.arena, s...)
				}
			default:
				l.Skip()
			}
		}
	}
	if len(nr.arena) > 0 {
		nr.labels = string(nr.arena)
	}
}

// Reset empties the records.
func (nr *NodeRecords) Reset() {
	nr.recs, nr.arena, nr.labels = nr.recs[:0], nr.arena[:0], ""
}

// Len returns the number of records.
func (nr *NodeRecords) Len() int { return len(nr.recs) }

// Record returns the fields of the i-th record.
func (nr *NodeRecords) Record(i int) (id, parent NodeID, dist, requests int64, label string) {
	r := &nr.recs[i]
	return r.id, r.parent, r.dist, r.requests, nr.labels[r.labelOff : r.labelOff+r.labelLen]
}

// treeDecoder is the pooled working memory of one tree decode.
type treeDecoder struct {
	nodes NodeRecords
	ends  []int32 // per parent: children offsets in the shared array
	walk  walkScratch
}

// treeFields are a tree object's field names, in decode's case order.
var treeFields = []string{"root", "nodes"}

var treeDecoders = sync.Pool{New: func() any { return new(treeDecoder) }}

// DecodeTree reads the tree value at the lexer's cursor — the
// {"root": …, "nodes": […]} object Tree.MarshalJSON writes — and
// returns the built and validated tree.
func DecodeTree(l *Lexer) (*Tree, error) {
	t := new(Tree)
	if err := t.decode(l); err != nil {
		return nil, err
	}
	return t, nil
}

// decode reads a tree value into t, leaving t untouched on error.
func (t *Tree) decode(l *Lexer) error {
	d := treeDecoders.Get().(*treeDecoder)
	defer d.release()
	d.nodes.Reset() // a tree without "nodes" has none
	var root NodeID
	if !l.Null() {
		for f := l.Object(treeFields); f != End; f = l.More(treeFields) {
			switch f {
			case 0: // root
				l.readNodeID(&root)
			case 1: // nodes
				d.nodes.Decode(l)
			default:
				l.Skip()
			}
		}
	}
	if l.err != nil {
		return l.err
	}
	return d.build(t, root)
}

// release returns d to the pool without the labels of the tree it
// just built, which the tree keeps alive on its own.
func (d *treeDecoder) release() {
	d.nodes.Reset()
	treeDecoders.Put(d)
}

// build places the decoded records into a fresh arena and validates
// the result; t is assigned only on success.
func (d *treeDecoder) build(t *Tree, root NodeID) error {
	n := d.nodes.Len()
	nodes := make([]Node, n)
	placed := d.walk.bools(n)
	for i := 0; i < n; i++ {
		id, parent, dist, requests, label := d.nodes.Record(i)
		if id < 0 || int(id) >= n {
			return fmt.Errorf("tree: json node id %d out of range [0,%d)", id, n)
		}
		if placed[id] {
			return fmt.Errorf("tree: json node id %d appears twice", id)
		}
		placed[id] = true
		nodes[id] = Node{Parent: parent, Dist: dist, Requests: requests, Label: label}
	}
	if cap(d.ends) < n {
		d.ends = make([]int32, n)
	}
	ends := d.ends[:n]
	clear(ends)
	for j := range nodes {
		if p := nodes[j].Parent; p != None {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("tree: json node %d has out-of-range parent %d", j, p)
			}
			ends[p]++
		}
	}
	// Counts → start offsets; the fill below advances each to its end.
	var total int32
	for p, c := range ends {
		ends[p] = total
		total += c
	}
	kids := make([]NodeID, total)
	for j := range nodes {
		if p := nodes[j].Parent; p != None {
			kids[ends[p]] = NodeID(j)
			ends[p]++
		}
	}
	var start int32
	for p, end := range ends {
		if end > start {
			nodes[p].Children = kids[start:end:end]
		}
		start = end
	}
	nt := Tree{nodes: nodes, root: root}
	if err := nt.validate(&d.walk); err != nil {
		return err
	}
	*t = nt
	return nil
}
