package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req (the request's index in the seeded sequence); Parent
// names the enclosing span of the same request ("" for the request
// span itself).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; writeSpans dumps them when the run ends.
// A tracer belongs to one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a finished span and returns it.
func (t *tracer) record(req int, name, parent string, start, end int64) span {
	s := span{Req: req, Name: name, Parent: parent, Start: start, End: end}
	t.spans = append(t.spans, s)
	return s
}

// call runs fn inside a span.
func (t *tracer) call(req int, name, parent string, fn func()) span {
	start := t.now()
	fn()
	return t.record(req, name, parent, start, t.now())
}

// selfTime is the parent's duration minus the part of its interval
// that its children cover. Children are clipped to the parent and
// their union is taken, so overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// inHandlerOrder lays spans measured one after another outside a
// handler end to end from the handler's start, in the order the
// handler makes the same calls. selfTime of the handler over the
// result is the handler time its public calls do not explain.
func inHandlerOrder(handler span, calls []span) []span {
	out := make([]span, len(calls))
	at := handler.Start
	for i, c := range calls {
		d := c.End - c.Start
		out[i] = c
		out[i].Start, out[i].End = at, at+d
		at += d
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
