package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/decomp"
	"replicatree/internal/tree"
)

// decompOp is one huge-decomp operation: read the chunked stream, then
// solve it by decomposition with verification on.
func decompOp(w *decompWorkload) (*core.FlatInstance, *decomp.Result, error) {
	fi, err := core.ReadChunked(bytes.NewReader(w.chunked))
	if err != nil {
		return nil, nil, err
	}
	res, err := decomp.SolveFlat(context.Background(), fi, decomp.Options{Verify: true})
	return fi, res, err
}

// checkDecomp re-verifies an answer against the instance it solved and
// returns its gap.
func checkDecomp(w *decompWorkload, fi *core.FlatInstance, res *decomp.Result) (float64, error) {
	if err := fi.Verify(core.Multiple, res.Solution); err != nil {
		return 0, fmt.Errorf("infeasible answer: %w", err)
	}
	if res.LowerBound != w.lb {
		return 0, fmt.Errorf("lower bound %d, want %d", res.LowerBound, w.lb)
	}
	if res.Replicas != res.Solution.NumReplicas() {
		return 0, fmt.Errorf("replicas %d but the solution has %d", res.Replicas, res.Solution.NumReplicas())
	}
	return checkGap(res.Replicas, res.LowerBound, res.Gap)
}

// decompRun runs operations one at a time until d has passed (at
// least one), checking each answer.
type decompRun struct {
	lats   []time.Duration
	gaps   []float64
	failed int
	cpu    time.Duration
}

func (b *bench) decompLoop(w *decompWorkload, d time.Duration) decompRun {
	var r decompRun
	c0 := selfCPU()
	start := time.Now()
	for len(r.lats) == 0 || time.Since(start) < d {
		t0 := time.Now()
		fi, res, err := decompOp(w)
		lat := time.Since(t0)
		if err == nil {
			var gap float64
			if gap, err = checkDecomp(w, fi, res); err == nil {
				r.lats = append(r.lats, lat)
				r.gaps = append(r.gaps, gap)
				continue
			}
		}
		r.failed++
		b.bad("huge-decomp operation %d: %v", len(r.lats)+r.failed, err)
		if r.failed > 3 {
			break
		}
	}
	r.cpu = selfCPU() - c0
	return r
}

func (r decompRun) opsPerSecond() float64 {
	var sum time.Duration
	for _, l := range r.lats {
		sum += l
	}
	return float64(len(r.lats)) / sum.Seconds()
}

func runDecomp(b *bench) error {
	var w *decompWorkload
	reps := setupReps
	if b.trace {
		reps = 1 // a traced run reports no setup_s
	}
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		w = nil // let the previous set-up's instance be collected
		t0 := time.Now()
		var err error
		if w, err = newDecompWorkload(b.seed, decompNodes); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.say("shape: nodes=%d clients=%d W=%d dmax=%d chunked_bytes=%d lower_bound=%d",
		w.fi.Flat.Len(), w.fi.Flat.NumClients(), w.fi.W, w.fi.DMax, len(w.chunked), w.lb)
	if b.trace {
		return traceDecomp(b, w)
	}
	// Return the set-ups' garbage to the OS first, so the peak covers
	// the operations, not the heap the set-ups left behind.
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	r := b.decompLoop(w, time.Duration(b.seconds)*time.Second)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	n := len(r.lats)
	b.count(n+r.failed, r.failed)
	lat := durations(r.lats, time.Millisecond)
	b.report("setup_s", median(setups), "s", len(setups))
	b.note("ops_per_s", r.opsPerSecond(), "1/s", n)
	b.report("latency_p50_ms", median(lat), "ms", n)
	b.say("note   latency_p99_ms refused: fewer than %d of %d samples beyond it", minBeyond, n)
	b.report("ok_ratio", float64(n)/float64(n+r.failed), "ratio", n+r.failed)
	b.note("fail_ratio", float64(r.failed)/float64(n+r.failed), "ratio", n+r.failed)
	b.report("mean_gap", mean(r.gaps[:min(1, len(r.gaps))]), "ratio", min(1, len(r.gaps)))
	b.report("peak_rss_mb", rss, "MB", 1)
	return nil
}

// traceDecomp runs untraced operations for half the run, then traced
// ones for the other half, each traced operation followed by the
// partitioner alone on the instance it read. A layer pass runs the
// traced operations only.
func traceDecomp(b *bench, w *decompWorkload) error {
	half := time.Duration(b.seconds) * time.Second / 2
	var plain decompRun
	if !b.pass {
		plain = b.decompLoop(w, half)
		b.count(len(plain.lats)+plain.failed, plain.failed)
	}
	tr := newTracer(time.Now())
	s := newSeries()
	var opTime time.Duration
	ops := 0
	for start := time.Now(); ops == 0 || time.Since(start) < half; ops++ {
		t0 := tr.now()
		var fi *core.FlatInstance
		var res *decomp.Result
		var err error
		rd := tr.call(ops, "core.read_chunked", "request", func() { fi, err = core.ReadChunked(bytes.NewReader(w.chunked)) })
		if err != nil {
			return err
		}
		sv := tr.call(ops, "decomp.solve", "request", func() {
			res, err = decomp.SolveFlat(context.Background(), fi, decomp.Options{Verify: true})
		})
		if err != nil {
			return err
		}
		vf := tr.call(ops, "core.flat_verify", "request", func() { err = fi.Verify(core.Multiple, res.Solution) })
		if err != nil {
			return err
		}
		pt := tr.call(ops, "tree.partition", "request", func() {
			_ = tree.BuildPieces(fi.Flat, tree.PartitionPoints(fi.Flat, decomp.DefaultPieceSize))
		})
		tr.record(ops, "request", "", t0, tr.now())
		opTime += rd.dur() + sv.dur()
		s.add("core.read_chunked_ms", "ms", ms(rd.dur()))
		s.add("decomp.solve_ms", "ms", ms(sv.dur()))
		s.add("core.flat_verify_ms", "ms", ms(vf.dur()))
		s.add("tree.partition_ms", "ms", ms(pt.dur()))
		s.add("decomp.pieces", "count", float64(res.Pieces))
		s.add("decomp.rounds", "count", float64(res.Rounds))
		s.add("decomp.moved", "count", float64(res.Moved))
		s.add("decomp.merged", "count", float64(res.Merged))
		s.add("decomp.replicas", "count", float64(res.Replicas))
		s.add("decomp.lower_bound", "count", float64(res.LowerBound))
	}
	b.count(ops, 0)
	if !b.pass {
		tracedOps := float64(ops) / opTime.Seconds()
		plainOps := plain.opsPerSecond()
		b.report("trace.ops_per_s", tracedOps, "1/s", ops)
		b.report("trace.overhead_pct", 100*(plainOps-tracedOps)/plainOps, "%", len(plain.lats))
		b.report("server.cpu_ms_per_op", ms(plain.cpu)/float64(len(plain.lats)), "ms", len(plain.lats))
	}
	b.reportAll(s)
	b.spans = tr.spans
	return b.writeSpans()
}
