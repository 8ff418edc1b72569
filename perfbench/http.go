package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/service"
	"replicatree/internal/tree"
)

// Prefix sizes the quality metrics (mean_gap, mean_churn) are computed
// over, and how often a response outside the prefix is kept and
// checked.
const (
	hitPrefix         = 1024
	hitSampleEvery    = 32
	missPrefix        = 256
	missSampleEvery   = 8
	churnPrefix       = 128 // per session
	churnSampleEvery  = 16
	churnWarmReads    = 32 // solution reads per session in set-up
	fleetWorkers      = "2"
	fleetReplication  = "1"
	settlePollTimeout = 10 * time.Second
)

// counters is the union of the /metrics fields the guards and
// per-layer metrics read: replicafleet fills Totals and Gossip,
// replicad fills Statuses.
type counters struct {
	Totals struct {
		Tier1Hits   uint64 `json:"tier1_hits"`
		Tier1Misses uint64 `json:"tier1_misses"`
		Tier2Hits   uint64 `json:"tier2_hits"`
	} `json:"totals"`
	Gossip struct {
		Sent    uint64 `json:"sent"`
		Dropped uint64 `json:"dropped"`
	} `json:"gossip"`
	Statuses map[string]uint64 `json:"statuses"`
}

// window is one measured closed-loop window against a daemon.
type window struct {
	loop            loopResult
	before, after   counters
	serverCPU       time.Duration
	clientCPU       time.Duration
	serverPeakRSSMB float64
}

func (w window) ok() int {
	n := 0
	for _, s := range w.loop.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// measure runs one closed-loop window of the given length against d.
func (b *bench) measure(d *daemon, src sequence, seconds float64, traced bool) (window, error) {
	client := b.client
	var w window
	if err := getJSON(client, d.url+"/metrics", &w.before); err != nil {
		return w, err
	}
	s0, err := procCPU(d.pid())
	if err != nil {
		return w, err
	}
	c0 := selfCPU()
	w.loop = closedLoop(client, d.url, b.nproc, src, time.Duration(seconds*float64(time.Second)), traced)
	w.clientCPU = selfCPU() - c0
	s1, err := procCPU(d.pid())
	if err != nil {
		return w, err
	}
	w.serverCPU = s1 - s0
	// The high-water mark includes set-up: warming is the daemon
	// serving requests too, and what it then frees it may keep.
	if w.serverPeakRSSMB, err = peakRSSMB(strconv.Itoa(d.pid())); err != nil {
		return w, err
	}
	return w, getJSON(client, d.url+"/metrics", &w.after)
}

// send issues reqs over conns connections and returns the answers in
// request order, failing on any unexpected status: the warm-up and
// session set-up path.
func send(client *http.Client, base string, conns int, reqs []httpReq) ([][]byte, error) {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	bodies := make([][]byte, len(reqs))
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(reqs); i += conns {
				status, err := roundTrip(client, base, reqs[i], &buf)
				if err == nil && status != reqs[i].want {
					err = fmt.Errorf("%s %s: status %d: %.200s", reqs[i].method, reqs[i].path, status, buf.String())
				}
				if err != nil {
					errs[c] = err
					return
				}
				bodies[i] = bytes.Clone(buf.Bytes())
			}
		}(c)
	}
	wg.Wait()
	return bodies, errors.Join(errs...)
}

// settleGossip waits until the fleet's replication queue is idle, so
// set-up work never leaks into the measured window.
func settleGossip(client *http.Client, base string) error {
	deadline := time.Now().Add(settlePollTimeout)
	var prev counters
	for first := true; ; first = false {
		var c counters
		if err := getJSON(client, base+"/metrics", &c); err != nil {
			return err
		}
		if !first && c.Gossip == prev.Gossip {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gossip did not settle within %s", settlePollTimeout)
		}
		prev = c
		time.Sleep(50 * time.Millisecond)
	}
}

func solveReq(body []byte) httpReq {
	return httpReq{method: http.MethodPost, path: "/v2/solve", body: body, want: http.StatusOK}
}

// checkSolve verifies one /v2/solve answer client-side against the
// instance that was sent and returns its gap.
func checkSolve(it solveItem, body []byte, wantCached, wantCert bool) (float64, error) {
	var r service.SolveResponseV2
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode answer: %w", err)
	}
	if r.Solution == nil {
		return 0, fmt.Errorf("answer has no solution")
	}
	pol, err := parsePolicy(r.Policy)
	if err != nil {
		return 0, err
	}
	if err := core.Verify(it.in, pol, r.Solution); err != nil {
		return 0, fmt.Errorf("infeasible answer: %w", err)
	}
	switch {
	case r.Hash != it.hash:
		return 0, fmt.Errorf("hash %s, want %s", r.Hash, it.hash)
	case r.LowerBound != it.lb:
		return 0, fmt.Errorf("lower_bound %d, want core.LowerBound %d", r.LowerBound, it.lb)
	case r.Replicas != r.Solution.NumReplicas():
		return 0, fmt.Errorf("replicas %d but the solution has %d", r.Replicas, r.Solution.NumReplicas())
	case r.Cached != wantCached:
		return 0, fmt.Errorf("cached=%t, want %t", r.Cached, wantCached)
	case wantCert != (r.Certificate != nil):
		return 0, fmt.Errorf("certificate present=%t, want %t", r.Certificate != nil, wantCert)
	}
	gap, err := checkGap(r.Replicas, r.LowerBound, r.Gap)
	if err != nil {
		return 0, err
	}
	if wantCert {
		if err := r.Certificate.VerifyAgainst(it.in); err != nil {
			return 0, fmt.Errorf("certificate: %w", err)
		}
		if r.Certificate.Replicas != r.Replicas {
			return 0, fmt.Errorf("certificate claims %d replicas, answer %d", r.Certificate.Replicas, r.Replicas)
		}
	}
	return gap, nil
}

// checkGap recomputes (replicas − bound) / bound and compares it with
// the reported gap.
func checkGap(replicas, bound int, reported float64) (float64, error) {
	if bound <= 0 {
		return 0, fmt.Errorf("non-positive lower bound %d", bound)
	}
	gap := float64(replicas-bound) / float64(bound)
	if math.Abs(gap-reported) > 1e-9 {
		return 0, fmt.Errorf("gap %g, want %g", reported, gap)
	}
	return gap, nil
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case core.Single.String():
		return core.Single, nil
	case core.Multiple.String():
		return core.Multiple, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// outcome tallies a window's checked samples.
type outcome struct {
	failed int
	prefix int       // prefix answers checked
	gaps   []float64 // over the prefix
	churns []float64 // over the prefix (session-churn only)
}

// tally counts transport failures and marks the run incorrect on the
// first few of them.
func (b *bench) tally(o *outcome, s sample) bool {
	if s.ok {
		return true
	}
	o.failed++
	if o.failed <= 3 {
		b.bad("%s request %d/%d failed: %s", b.workload, s.conn, s.seq, s.err)
	}
	return false
}

// checkFail records a failed answer check.
func (b *bench) checkFail(o *outcome, s sample, err error) {
	o.failed++
	if o.failed <= 3 {
		b.bad("%s answer %d/%d: %v", b.workload, s.conn, s.seq, err)
	}
}

// httpWorkload is what the shared runner needs from an HTTP workload.
type httpWorkload struct {
	// setup generates the inputs, starts the daemon and brings it to
	// the measured state.
	setup func() (*daemon, error)
	// seq returns a fresh request sequence for one window.
	seq func() sequence
	// check verifies a window's kept answers and guards.
	check func(window) outcome
	// shape describes the instances sent.
	shape func() string
	// inproc is the traced run's in-process replay.
	inproc func(clientP50us float64) error
}

// windows is how many fresh daemons a run measures, each for an equal
// share of the run. Latencies are pooled and throughput is the median
// window's, so what one process start happens to get (memory layout,
// GC pacing) moves neither much.
const windows = 3

// runHTTP measures an HTTP workload: windows times, set up a fresh
// daemon, measure it for its share of the run and stop it.
func (b *bench) runHTTP(hw httpWorkload) error {
	if b.trace {
		return b.traceHTTP(hw)
	}
	var setups []float64
	var wins []window
	var outs []outcome
	for i := 0; i < windows; i++ {
		t0 := time.Now()
		d, err := hw.setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w, err := b.measure(d, hw.seq(), float64(b.seconds)/windows, false)
		d.stop()
		if err != nil {
			return err
		}
		wins = append(wins, w)
		outs = append(outs, hw.check(w))
	}
	b.say("shape: %s", hw.shape())
	b.reportE2E(setups, wins, outs)
	return nil
}

// reportE2E prints the end-to-end metrics of an HTTP workload, pooled
// over its windows.
func (b *bench) reportE2E(setups []float64, wins []window, outs []outcome) {
	var attempted, ok int
	var lat, rss, rates []float64
	for k, w := range wins {
		attempted += len(w.loop.samples)
		good := w.ok() - (outs[k].failed - countFailed(w.loop.samples))
		ok += good
		rates = append(rates, float64(good)/w.loop.elapsed.Seconds())
		lat = append(lat, durations(w.loop.latencies(), time.Millisecond)...)
		rss = append(rss, w.serverPeakRSSMB)
		// Every window replays the same prefix against a fresh daemon,
		// so the quality metrics must repeat exactly.
		if mean(outs[k].gaps) != mean(outs[0].gaps) || mean(outs[k].churns) != mean(outs[0].churns) {
			b.bad("%s: window %d's prefix answers differ from window 0's", b.workload, k)
		}
	}
	b.count(attempted, attempted-ok)
	b.report("setup_s", median(setups), "s", len(setups))
	b.note("ops_per_s", median(rates), "1/s", ok)
	b.report("latency_p50_ms", median(lat), "ms", len(lat))
	if p99, ok := tailPercentile(lat, 99); ok {
		b.note("latency_p99_ms", p99, "ms", len(lat))
	} else {
		b.say("note   latency_p99_ms refused: fewer than %d of %d samples beyond it", minBeyond, len(lat))
	}
	b.report("ok_ratio", float64(ok)/float64(attempted), "ratio", attempted)
	b.note("fail_ratio", float64(attempted-ok)/float64(attempted), "ratio", attempted)
	b.report("mean_gap", mean(outs[0].gaps), "ratio", len(outs[0].gaps))
	if outs[0].churns != nil {
		b.note("mean_churn", mean(outs[0].churns), "replicas", len(outs[0].churns))
	}
	b.report("peak_rss_mb", median(rss), "MB", len(rss))
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// prefixComplete checks that every prefix position was answered and
// checked.
func (b *bench) prefixComplete(o outcome, want int) {
	if o.prefix != want {
		b.bad("%s: %d of %d prefix answers checked", b.workload, o.prefix, want)
	}
}

// warm sends every item once, fails on any non-200 answer, waits for
// gossip to settle and returns the answers in item order.
func (b *bench) warm(d *daemon, items []solveItem) ([][]byte, error) {
	reqs := make([]httpReq, len(items))
	for k, it := range items {
		reqs[k] = solveReq(it.body)
	}
	bodies, err := send(b.client, d.url, b.nproc, reqs)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return bodies, settleGossip(b.client, d.url)
}

func (b *bench) startFleet() (*daemon, error) {
	return startDaemon(b.binDir, "replicafleet", b.nproc, "-n", fleetWorkers, "-replication", fleetReplication)
}

// ---- hit-replay -------------------------------------------------------

// hit-replay's sequence begins with the warming requests, one per key
// in key order (all misses), and continues with the Zipf replay (all
// hits). mean_gap is over the warming answers: every key once.
func runHit(b *bench) error {
	var w *hitWorkload
	var warmed [][]byte
	return b.runHTTP(httpWorkload{
		setup: func() (*daemon, error) {
			var err error
			if w, err = newHitWorkload(b.seed); err != nil {
				return nil, err
			}
			d, err := b.startFleet()
			if err != nil {
				return nil, err
			}
			if warmed, err = b.warm(d, w.keys); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		},
		seq: func() sequence {
			return &sharedSeq{n: hitSeqLen, prefix: hitPrefix, sampleEvery: hitSampleEvery,
				req: func(i int) httpReq { return solveReq(w.body(i)) }}
		},
		check: func(win window) outcome {
			var o outcome
			for k, body := range warmed {
				gap, err := checkSolve(w.keys[k], body, false, false)
				if err != nil {
					b.checkFail(&o, sample{conn: -1, seq: k}, fmt.Errorf("warming answer: %w", err))
					continue
				}
				o.gaps = append(o.gaps, gap)
			}
			for _, s := range sortedSamples(win.loop.samples) {
				if !b.tally(&o, s) || s.body == nil {
					continue
				}
				if _, err := checkSolve(w.keys[w.seq[s.seq]], s.body, true, wantsCert(s.seq)); err != nil {
					b.checkFail(&o, s, err)
					continue
				}
				if s.seq < hitPrefix {
					o.prefix++
				}
			}
			b.prefixComplete(o, hitPrefix)
			if misses := win.after.Totals.Tier1Misses - win.before.Totals.Tier1Misses; misses != 0 {
				b.bad("hit-replay guard: the timed window saw %d tier-1 misses", misses)
			}
			return o
		},
		shape:  func() string { return hitShapeLine(w) },
		inproc: func(p50 float64) error { return traceHitInProcess(b, w, p50) },
	})
}

// ---- miss-solve -------------------------------------------------------

func runMiss(b *bench) error {
	var w *missWorkload
	return b.runHTTP(httpWorkload{
		setup: func() (*daemon, error) {
			var err error
			if w, err = newMissWorkload(b.seed, max(missPrefix, missPerSecond*b.seconds/windows)); err != nil {
				return nil, err
			}
			d, err := b.startFleet()
			if err != nil {
				return nil, err
			}
			if _, err := b.warm(d, w.warm); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		},
		seq: func() sequence {
			return &sharedSeq{n: len(w.items), prefix: missPrefix, sampleEvery: missSampleEvery,
				req: func(i int) httpReq { return solveReq(w.body(i)) }}
		},
		check: func(win window) outcome {
			var o outcome
			for _, s := range sortedSamples(win.loop.samples) {
				if !b.tally(&o, s) || s.body == nil {
					continue
				}
				gap, err := checkSolve(w.items[s.seq], s.body, false, false)
				if err != nil {
					b.checkFail(&o, s, err)
					continue
				}
				if s.seq < missPrefix {
					o.prefix++
					o.gaps = append(o.gaps, gap)
				}
			}
			b.prefixComplete(o, missPrefix)
			hits := win.after.Totals.Tier1Hits + win.after.Totals.Tier2Hits - win.before.Totals.Tier1Hits - win.before.Totals.Tier2Hits
			if hits != 0 {
				b.bad("miss-solve guard: the timed window saw %d cache hits", hits)
			}
			if len(win.loop.samples) >= len(w.items) {
				b.say("note   miss-solve used all %d pre-generated instances before the window ended", len(w.items))
			}
			return o
		},
		shape:  func() string { return itemsShapeLine(w.items) },
		inproc: func(p50 float64) error { return traceMissInProcess(b, w, p50) },
	})
}

// ---- session-churn ----------------------------------------------------

func mutateReq(id string, body []byte) httpReq {
	return httpReq{method: http.MethodPost, path: "/v2/instances/" + id + "/mutate", body: body, want: http.StatusOK}
}

func runChurn(b *bench) error {
	var w *churnWorkload
	return b.runHTTP(httpWorkload{
		setup: func() (*daemon, error) {
			var err error
			if w, err = newChurnWorkload(b.seed); err != nil {
				return nil, err
			}
			d, err := startDaemon(b.binDir, "replicad", b.nproc)
			if err != nil {
				return nil, err
			}
			var reqs []httpReq
			for _, s := range w.sessions {
				reqs = append(reqs, httpReq{method: http.MethodPut, path: "/v2/instances/" + s.id, body: s.put, want: http.StatusCreated})
			}
			// The first read solves; the rest warm the response path
			// the mutate answers take.
			for k := 0; k < churnWarmReads; k++ {
				for _, s := range w.sessions {
					reqs = append(reqs, httpReq{method: http.MethodGet, path: "/v2/instances/" + s.id + "/solution", want: http.StatusOK})
				}
			}
			// One connection keeps each PUT before its first solve.
			if _, err := send(b.client, d.url, 1, reqs); err != nil {
				d.stop()
				return nil, fmt.Errorf("session set-up: %w", err)
			}
			return d, nil
		},
		seq: func() sequence {
			return &perConnSeq{prefix: churnPrefix, sampleEvery: churnSampleEvery, pos: make([]atomic.Int64, churnSessions),
				req: func(c, j int) httpReq { return mutateReq(w.sessions[c].id, w.body(c, j)) }}
		},
		check: func(win window) outcome {
			o := outcome{churns: []float64{}}
			byConn := make([][]sample, churnSessions)
			for _, s := range sortedSamples(win.loop.samples) {
				byConn[s.conn] = append(byConn[s.conn], s)
			}
			for c, ss := range byConn {
				ed := tree.NewEditor(w.sessions[c].in.Tree)
				mirror := &core.Instance{Tree: ed.Tree(), W: w.sessions[c].in.W, DMax: w.sessions[c].in.DMax}
				for j, s := range ss {
					if s.seq != j {
						b.bad("session %d: mutation %d answered out of order", c, j)
						break
					}
					for _, m := range w.mutations(c, j) {
						if err := ed.SetRequests(m.Node, m.Requests); err != nil {
							b.bad("session %d: mirror mutation %d: %v", c, j, err)
							return o
						}
					}
					if !b.tally(&o, s) || s.body == nil {
						continue
					}
					gap, churn, err := checkMutate(mirror, s.body)
					if err != nil {
						b.checkFail(&o, s, err)
						continue
					}
					if s.seq < churnPrefix {
						o.prefix++
						o.gaps = append(o.gaps, gap)
						o.churns = append(o.churns, float64(churn))
					}
				}
			}
			b.prefixComplete(o, churnPrefix*churnSessions)
			if n := win.after.Statuses["4xx"] - win.before.Statuses["4xx"]; n != 0 {
				b.bad("session-churn guard: the timed window got %d 4xx answers", n)
			}
			return o
		},
		shape:  func() string { return churnShapeLine(w) },
		inproc: func(p50 float64) error { return traceChurnInProcess(b, w, p50) },
	})
}

// checkMutate verifies one mutate answer against the client's mirror
// of the mutated instance and returns its gap and churn.
func checkMutate(mirror *core.Instance, body []byte) (float64, int, error) {
	var r service.InstanceSolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, fmt.Errorf("decode answer: %w", err)
	}
	if r.Solution == nil || r.Churn == nil {
		return 0, 0, fmt.Errorf("answer lacks solution or churn")
	}
	pol, err := parsePolicy(r.Policy)
	if err != nil {
		return 0, 0, err
	}
	if err := core.Verify(mirror, pol, r.Solution); err != nil {
		return 0, 0, fmt.Errorf("infeasible answer: %w", err)
	}
	if lb := core.LowerBound(mirror); r.LowerBound != lb {
		return 0, 0, fmt.Errorf("lower_bound %d, want core.LowerBound %d", r.LowerBound, lb)
	}
	if r.Replicas != r.Solution.NumReplicas() {
		return 0, 0, fmt.Errorf("replicas %d but the solution has %d", r.Replicas, r.Solution.NumReplicas())
	}
	gap, err := checkGap(r.Replicas, r.LowerBound, r.Gap)
	return gap, len(r.Churn.Added) + len(r.Churn.Removed), err
}

// sortedSamples orders samples by sequence position, then connection,
// so per-window sums over them add up in the same order every time.
func sortedSamples(ss []sample) []sample {
	out := append([]sample(nil), ss...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].seq != out[j].seq {
			return out[i].seq < out[j].seq
		}
		return out[i].conn < out[j].conn
	})
	return out
}
