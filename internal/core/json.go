package core

import (
	"encoding/json"
	"fmt"

	"replicatree/internal/tree"
)

// Wire format for instances: dmax is omitted (or null) for NoD.
type instanceJSON struct {
	Tree *tree.Tree `json:"tree"`
	W    int64      `json:"w"`
	DMax *int64     `json:"dmax,omitempty"`
}

// MarshalJSON encodes the instance; an absent "dmax" means no distance
// constraint.
func (in *Instance) MarshalJSON() ([]byte, error) {
	j := instanceJSON{Tree: in.Tree, W: in.W}
	if !in.NoD() {
		d := in.DMax
		j.DMax = &d
	}
	return json.Marshal(j)
}

// instanceFields are the instance object's field names, in
// UnmarshalJSON's case order.
var instanceFields = []string{"tree", "w", "dmax"}

// UnmarshalJSON decodes and validates an instance in one pass over
// data: the {"tree", "w", "dmax"} object is scanned once and the tree
// value is handed to the tree decoder on the same lexer, which builds
// and validates the node arena as it goes (see tree.Lexer for the
// accepted grammar, exactly encoding/json's for these types).
func (in *Instance) UnmarshalJSON(data []byte) error {
	var l tree.Lexer
	l.Reset(data)
	ni := Instance{DMax: NoDistance}
	if !l.Null() {
		for f := l.Object(instanceFields); f != tree.End; f = l.More(instanceFields) {
			switch f {
			case 0: // tree
				if l.Null() {
					ni.Tree = nil
					continue
				}
				t, err := tree.DecodeTree(&l)
				if err != nil {
					return err
				}
				ni.Tree = t
			case 1: // w
				l.ReadInt(&ni.W, 64)
			case 2: // dmax
				if l.Null() {
					ni.DMax = NoDistance
					continue
				}
				l.ReadInt(&ni.DMax, 64)
			default:
				l.Skip()
			}
		}
	}
	if err := l.Finish(); err != nil {
		return err
	}
	// The tree decoder has validated the tree; check the rest.
	if err := ni.validateParams(); err != nil {
		return fmt.Errorf("core: invalid instance: %w", err)
	}
	*in = ni
	return nil
}
