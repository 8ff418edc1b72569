package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(5,1,3) = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 99, ok: false},            // 1 sample beyond
		{n: 100, p: 90, want: 90, ok: true},   // exactly 10 beyond
		{n: 100, p: 91, ok: false},            // 9 beyond
		{n: 1000, p: 99, want: 990, ok: true}, // 10 beyond
		{n: 999, p: 99, ok: false},            // rank 990, 9 beyond
		{n: 3, p: 50, ok: false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(ramp(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(n=%d, p%g) = %g, %t; want %g, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Name: "handler", Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},   // overlaps the first: [10,40] covers 30
		{Start: 20, End: 40},   // an exact duplicate adds nothing
		{Start: 90, End: 120},  // clipped to the parent: 10
		{Start: -5, End: 5},    // clipped to the parent: 5
		{Start: 200, End: 300}, // outside the parent entirely
	}
	if got, want := selfTime(parent, children), time.Duration(100-30-10-5); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want the whole span", got)
	}
	if got := selfTime(parent, []span{{Start: -10, End: 110}}); got != 0 {
		t.Errorf("selfTime under a covering child = %v, want 0", got)
	}
}

func TestInHandlerOrderLaysCallsEndToEnd(t *testing.T) {
	h := span{Start: 1000, End: 1100}
	calls := []span{{Start: 5, End: 25}, {Start: 40, End: 70}}
	got := inHandlerOrder(h, calls)
	if got[0].Start != 1000 || got[0].End != 1020 || got[1].Start != 1020 || got[1].End != 1050 {
		t.Fatalf("inHandlerOrder = %+v", got)
	}
	if self := selfTime(h, got); self != 50 {
		t.Errorf("handler self time = %v, want 50", self)
	}
	if calls[0].Start != 5 {
		t.Error("inHandlerOrder modified its input")
	}
}
