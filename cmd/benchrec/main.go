// Command benchrec records the solve benchmark trajectory as a
// machine-readable JSON document. Two series:
//
//   - cold vs warm: the BenchmarkWarm* shapes of bench_test.go —
//     Engine.Solve of every session-backed engine on the ~200-node
//     binary gen.BenchInstance, once with no scratch lent (cold:
//     ingest plus solve on a one-off scratch per solve) and once on a
//     lent scratch (warm: zero allocations once ingested).
//
//   - delta: the BenchmarkDelta* shapes — one mutate-and-re-solve
//     cycle on ~200- and ~2k-node trees, as a cold solve, a warm
//     solve, and a delta.Session incremental resolve. The committed
//     document pins the instance-session acceptance bar: delta ≥10×
//     faster than cold on the 2k-node tree.
//
//   - fleet: closed-loop Zipf replays against an in-process fleet
//     (1 worker vs 4 workers; the keyspace is ~2.5× one worker's
//     tier-1 capacity, so partitioning it across the ring is what the
//     4-worker run buys), plus a failover sweep that crash-stops the
//     busiest member and measures the re-warm. The committed document
//     pins the fleet acceptance bars: 4 workers sustain ≥2× the
//     single-worker warm throughput, and the failover sweep finishes
//     with zero errors.
//
//   - decomp: single-run wall-clock solves of huge generated trees
//     (~100k and, by default, one million nodes) through the subtree
//     decomposition engine, recording piece counts, coordination
//     activity and the gap against the subtree-sum lower bound. The
//     committed document pins the huge-tree acceptance bar: the
//     million-node solve completes well inside 120 s.
//
// The committed BENCH_009.json at the repository root is a recorded
// run of this command; CI re-runs it on every push and uploads the
// fresh document as a build artifact, so the trajectory of the
// zero-alloc hot path stays observable over time without gating merges
// on machine-dependent numbers.
//
// Usage:
//
//	benchrec                  # writes BENCH_009.json
//	benchrec -o out.json      # custom output path
//	benchrec -benchtime 200ms # faster, noisier (CI smoke uses this)
//	benchrec -decomp-nodes 0  # skip the million-node decomp solve
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/decomp"
	"replicatree/internal/delta"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// Schema identifies the document layout for downstream tooling
// (v2 added the delta mutate-and-re-solve series; v3 the fleet
// throughput and failover series; v4 the huge-tree decomposition
// series).
const Schema = "replicatree-bench/v4"

// Document is the recorded benchmark file.
type Document struct {
	Schema   string   `json:"schema"`
	Go       string   `json:"go"`
	GOOS     string   `json:"goos"`
	GOARCH   string   `json:"goarch"`
	Instance Shape    `json:"instance"`
	Results  []Result `json:"results"`
	// Delta is the mutate-and-re-solve series: one mutation + re-solve
	// cycle per op, per tree size and service level.
	Delta []DeltaResult `json:"delta"`
	// Fleet is the sharded-fleet series: Zipf replays at 1 and 4
	// workers plus the post-crash failover sweep.
	Fleet []FleetResult `json:"fleet"`
	// Decomp is the huge-tree series: single-run wall-clock solves
	// through the subtree decomposition engine.
	Decomp []DecompResult `json:"decomp"`
}

// DecompResult is one huge-tree decomposition solve. Wall-clock is a
// single run — at a million nodes the solve itself is the repetition.
type DecompResult struct {
	Nodes      int     `json:"nodes"`
	Clients    int     `json:"clients"`
	Pieces     int     `json:"pieces"`
	Merged     int     `json:"merged"`
	Rounds     int     `json:"rounds"`
	Moved      int     `json:"moved"`
	Workers    int     `json:"workers"`
	Replicas   int     `json:"replicas"`
	LowerBound int     `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	WallMs     float64 `json:"wall_ms"`
}

// DeltaResult is one (nodes, mode) mutate-and-re-solve measurement.
// Mode "cold" re-solves the mutated instance with no scratch lent
// (ingest plus solve on a one-off scratch), "warm" re-solves on a lent
// scratch, "delta" resolves incrementally through a delta.Session.
type DeltaResult struct {
	Engine      string  `json:"engine"`
	Mode        string  `json:"mode"` // "cold" | "warm" | "delta"
	Nodes       int     `json:"nodes"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Shape describes the benchmark instance.
type Shape struct {
	Nodes   int   `json:"nodes"`
	Clients int   `json:"clients"`
	W       int64 `json:"w"`
	DMax    int64 `json:"dmax,omitempty"` // omitted on the NoD twin
}

// Result is one (engine, mode) measurement. Mode "cold" solves with no
// scratch lent (ingest plus solve on a one-off scratch), "warm" on a
// lent scratch that has already ingested the instance.
type Result struct {
	Engine      string  `json:"engine"`
	Mode        string  `json:"mode"` // "cold" | "warm"
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	out := fs.String("o", "BENCH_009.json", "output path ('-' for stdout)")
	benchtime := fs.Duration("benchtime", time.Second, "target run time per (engine, mode) measurement")
	fleetDur := fs.Duration("fleet-duration", 3*time.Second, "measured window per fleet throughput scenario")
	decompNodes := fs.Int("decomp-nodes", 1_000_000, "largest decomp solve size (0 skips the large solve; the ~100k solve always runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// testing.Benchmark reads the test.benchtime flag that `go test`
	// normally registers; in a plain binary the testing flags must be
	// installed explicitly first.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}

	dist := gen.BenchInstance(gen.BenchSeed, 150, true)
	doc := Document{
		Schema: Schema,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Instance: Shape{
			Nodes:   dist.Tree.Len(),
			Clients: len(dist.Tree.Clients()),
			W:       dist.W,
			DMax:    dist.DMax,
		},
	}
	ctx := context.Background()
	for _, name := range solver.SessionEngines() {
		eng, err := solver.Lookup(name)
		if err != nil {
			return err
		}
		in := dist
		if !eng.Capabilities().SupportsDMax {
			in = gen.BenchInstance(gen.BenchSeed, 150, false)
		}
		for _, mode := range []string{"cold", "warm"} {
			req := solver.Request{Instance: in}
			if mode == "warm" {
				req.Scratch = solver.NewScratch()
			}
			if _, err := eng.Solve(ctx, req); err != nil { // ingest + grow buffers
				return fmt.Errorf("%s %s: %v", name, mode, err)
			}
			var solveErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := eng.Solve(ctx, req)
					if err != nil {
						solveErr = err
						b.FailNow()
					}
					if rep.Solution == nil {
						solveErr = fmt.Errorf("empty report")
						b.FailNow()
					}
				}
			})
			if solveErr != nil {
				return fmt.Errorf("%s %s: %v", name, mode, solveErr)
			}
			doc.Results = append(doc.Results, Result{
				Engine:      name,
				Mode:        mode,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
			fmt.Fprintf(os.Stderr, "%-16s %-4s %12.0f ns/op %8d B/op %6d allocs/op\n",
				name, mode, doc.Results[len(doc.Results)-1].NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp())
		}
	}

	for _, internals := range []int{150, 1500} {
		for _, mode := range []string{"cold", "warm", "delta"} {
			res, err := measureDelta(ctx, internals, mode)
			if err != nil {
				return err
			}
			doc.Delta = append(doc.Delta, res)
			fmt.Fprintf(os.Stderr, "%-16s %-5s %5d nodes %12.0f ns/op %8d B/op %6d allocs/op\n",
				"delta/"+solver.SingleGen, mode, res.Nodes, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}

	for _, workers := range []int{1, 4} {
		res, err := measureFleetThroughput(workers, *fleetDur)
		if err != nil {
			return err
		}
		doc.Fleet = append(doc.Fleet, res)
		fmt.Fprintf(os.Stderr, "%-16s %dw %9.0f rps  p50=%.2fms p95=%.2fms hit=%.3f t2=%d errs=%d\n",
			"fleet/"+res.Scenario, res.Workers, res.AchievedRPS, res.P50Ms, res.P95Ms, res.HitRate, res.Tier2Hits, res.Errors)
	}
	fo, err := measureFleetFailover()
	if err != nil {
		return err
	}
	doc.Fleet = append(doc.Fleet, fo)
	fmt.Fprintf(os.Stderr, "%-16s %dw recovery=%.0fms warm-hits=%d/%d failovers=%d errs=%d\n",
		"fleet/"+fo.Scenario, fo.Workers, fo.RecoveryMs, fo.CachedWarmHits, fo.Requests, fo.Failovers, fo.Errors)

	sizes := []int{100_000}
	if *decompNodes > 0 {
		sizes = append(sizes, *decompNodes)
	}
	for _, nodes := range sizes {
		dres, err := measureDecomp(ctx, nodes)
		if err != nil {
			return err
		}
		doc.Decomp = append(doc.Decomp, dres)
		fmt.Fprintf(os.Stderr, "%-16s %8d nodes %5d pieces %2d rounds  %d replicas (lb %d, gap %.3f)  %.0f ms\n",
			"decomp", dres.Nodes, dres.Pieces, dres.Rounds, dres.Replicas, dres.LowerBound, dres.Gap, dres.WallMs)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// measureDecomp generates a ~nodes-node flat instance (seed 42, the
// documented huge-tree seed) and solves it once through the
// decomposition pipeline, verification on — the recorded wall-clock
// covers partition, piece solves, coordination and the final check.
func measureDecomp(ctx context.Context, nodes int) (DecompResult, error) {
	rng := rand.New(rand.NewSource(42))
	fi, err := gen.RandomFlatInstance(rng, nodes, gen.TreeConfig{}, false)
	if err != nil {
		return DecompResult{}, err
	}
	begin := time.Now()
	res, err := decomp.SolveFlat(ctx, fi, decomp.Options{Verify: true})
	if err != nil {
		return DecompResult{}, fmt.Errorf("decomp %d nodes: %v", nodes, err)
	}
	return DecompResult{
		Nodes:      fi.Flat.Len(),
		Clients:    fi.Flat.NumClients(),
		Pieces:     res.Pieces,
		Merged:     res.Merged,
		Rounds:     res.Rounds,
		Moved:      res.Moved,
		Workers:    res.Workers,
		Replicas:   res.Replicas,
		LowerBound: res.LowerBound,
		Gap:        res.Gap,
		WallMs:     float64(time.Since(begin).Microseconds()) / 1000,
	}, nil
}

// measureDelta benchmarks one mutate-and-re-solve cycle (mirrors
// benchDeltaMutate in bench_test.go).
func measureDelta(ctx context.Context, internals int, mode string) (DeltaResult, error) {
	in := gen.BenchInstance(gen.BenchSeed, internals, true)
	clients := in.Tree.Clients()
	res := DeltaResult{Engine: solver.SingleGen, Mode: mode, Nodes: in.Tree.Len()}

	var benchErr error
	var r testing.BenchmarkResult
	if mode == "delta" {
		s, err := delta.New(in, solver.SingleGen)
		if err != nil {
			return res, err
		}
		defer s.Close()
		if _, err := s.Resolve(ctx); err != nil {
			return res, err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := clients[i%len(clients)]
				if err := s.Apply([]delta.Mutation{{Op: delta.OpSetRequest, Node: c, Requests: int64(1 + i%10)}}); err != nil {
					benchErr = err
					b.FailNow()
				}
				if _, err := s.Resolve(ctx); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
	} else {
		eng := solver.MustLookup(solver.SingleGen)
		ed := tree.NewEditor(in.Tree)
		req := solver.Request{Instance: &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}}
		if mode == "warm" {
			req.Scratch = solver.NewScratch()
		}
		if _, err := eng.Solve(ctx, req); err != nil {
			return res, err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := clients[i%len(clients)]
				if err := ed.SetRequests(c, int64(1+i%10)); err != nil {
					benchErr = err
					b.FailNow()
				}
				// A fresh wrapper forces scratch re-ingestion of the
				// mutated tree.
				req.Instance = &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}
				if _, err := eng.Solve(ctx, req); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
	}
	if benchErr != nil {
		return res, fmt.Errorf("delta %s (%d nodes): %v", mode, res.Nodes, benchErr)
	}
	res.Iterations = r.N
	res.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	res.BytesPerOp = r.AllocedBytesPerOp()
	res.AllocsPerOp = r.AllocsPerOp()
	return res, nil
}
