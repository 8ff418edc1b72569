package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"replicatree/internal/cert"
	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/fleet"
	"replicatree/internal/service"
	"replicatree/internal/solver"
)

// Prefix lengths of the in-process traced replays, and how many
// requests the allocation passes count over.
const (
	hitTracePrefix   = 512
	missTracePrefix  = 24
	churnTracePrefix = 200 // per session
	allocRuns        = 32
	missAllocRuns    = 6
)

// traceHTTP is the traced run of an HTTP workload: an untraced and a
// traced closed-loop window, each on a fresh set-up and each half the
// run's length, then the in-process replay that yields the per-layer
// metrics. A layer pass measures the untraced window only: the tracing
// overhead is the run's own workload's.
func (b *bench) traceHTTP(hw httpWorkload) error {
	kinds := []bool{false, true}
	if b.pass {
		kinds = kinds[:1]
	}
	wins := make([]window, len(kinds))
	for k, traced := range kinds {
		d, err := hw.setup()
		if err != nil {
			return err
		}
		wins[k], err = b.measure(d, hw.seq(), float64(b.seconds)/2, traced)
		d.stop()
		if err != nil {
			return err
		}
		b.count(len(wins[k].loop.samples), hw.check(wins[k]).failed)
	}
	plain := wins[0]
	if !b.pass {
		traced := wins[1]
		opsPlain := float64(plain.ok()) / plain.loop.elapsed.Seconds()
		opsTraced := float64(traced.ok()) / traced.loop.elapsed.Seconds()
		b.report("trace.ops_per_s", opsTraced, "1/s", traced.ok())
		b.report("trace.overhead_pct", 100*(opsPlain-opsTraced)/opsPlain, "%", plain.ok())
		b.spans = append(b.spans, traced.loop.spans...)
	}
	n := plain.ok()
	b.report("server.cpu_ms_per_op", ms(plain.serverCPU)/float64(n), "ms", n)
	b.report("client.cpu_ms_per_op", ms(plain.clientCPU)/float64(n), "ms", n)
	if b.workload != "session-churn" {
		d1, d2 := plain.before.Totals, plain.after.Totals
		hits := d2.Tier1Hits + d2.Tier2Hits - d1.Tier1Hits - d1.Tier2Hits
		lookups := d2.Tier1Hits + d2.Tier1Misses - d1.Tier1Hits - d1.Tier1Misses
		b.report("fleet.hit_ratio", float64(hits)/float64(lookups), "ratio", int(lookups))
		b.report("fleet.gossip_dropped", float64(plain.after.Gossip.Dropped-plain.before.Gossip.Dropped), "count", n)
	}
	return hw.inproc(median(durations(plain.loop.latencies(), time.Microsecond)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layer collects one per-layer series.
type layer struct {
	unit string
	xs   []float64
}

// series is an ordered set of per-layer series.
type series struct {
	order []string
	m     map[string]*layer
}

func newSeries() *series { return &series{m: map[string]*layer{}} }

func (s *series) add(name, unit string, x float64) {
	l, ok := s.m[name]
	if !ok {
		l = &layer{unit: unit}
		s.m[name] = l
		s.order = append(s.order, name)
	}
	l.xs = append(l.xs, x)
}

func (s *series) addSpan(name string, sp span) { s.add(name, "us", us(sp.dur())) }

// reportAll reports the median of every series with its sample count.
func (b *bench) reportAll(s *series) {
	for _, name := range s.order {
		l := s.m[name]
		b.report(name, median(l.xs), l.unit, len(l.xs))
	}
}

// sink is a ResponseWriter that keeps the status and counts the body
// bytes, so handler timings do not include growing a recorder buffer.
type sink struct {
	h      http.Header
	status int
	n      int
	body   bytes.Buffer
	keep   bool
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += len(p)
	if s.keep {
		s.body.Write(p)
	}
	return len(p), nil
}

// prepared is one in-process request, built before its span starts.
type prepared struct {
	req *http.Request
	w   *sink
}

func prepare(method, path string, body []byte, keep bool) prepared {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return prepared{req: r, w: &sink{h: http.Header{}, keep: keep}}
}

// serve runs a prepared request through h inside a span.
func serve(tr *tracer, req int, name string, h http.Handler, p prepared, want int) (span, error) {
	sp := tr.call(req, name, "request", func() { h.ServeHTTP(p.w, p.req) })
	if p.w.status != want {
		return sp, fmt.Errorf("%s: status %d, want %d", name, p.w.status, want)
	}
	return sp, nil
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func decodeReport(body []byte) (solver.Report, error) {
	var r service.SolveResponseV2
	if err := json.Unmarshal(body, &r); err != nil {
		return solver.Report{}, err
	}
	pol, err := parsePolicy(r.Policy)
	if err != nil {
		return solver.Report{}, err
	}
	return solver.Report{Solution: r.Solution, Policy: pol, LowerBound: r.LowerBound, Gap: r.Gap,
		Work: r.Work, Proved: r.Proved, Engine: r.Engine}, nil
}

// traceHitInProcess replays a prefix of the hit sequence against an
// in-process fleet router and a standalone service, both warmed, and
// times the handler's public calls one by one.
func traceHitInProcess(b *bench, w *hitWorkload, clientP50us float64) error {
	fl := fleet.New(fleet.Config{Workers: 2, Replication: 1})
	defer fl.Close()
	rt := fl.Router()
	srv := service.New(service.Options{CacheSize: service.DefaultCacheSize})
	defer srv.Close()
	cache := service.NewCache(service.DefaultCacheSize)
	tr := newTracer(time.Now())

	warmed := map[uint16]bool{}
	for i := 0; i < hitTracePrefix; i++ {
		k := w.seq[i]
		if warmed[k] {
			continue
		}
		warmed[k] = true
		body := w.keys[k].body
		if _, err := serve(tr, -1, "warm", rt, prepare(http.MethodPost, "/v2/solve", body, false), http.StatusOK); err != nil {
			return err
		}
		p := prepare(http.MethodPost, "/v2/solve", body, true)
		if _, err := serve(tr, -1, "warm", srv, p, http.StatusOK); err != nil {
			return err
		}
		rep, err := decodeReport(p.w.body.Bytes())
		if err != nil {
			return err
		}
		cache.Put(solver.Auto, w.keys[k].hash, rep)
	}
	fl.SyncGossip()
	tr.spans = tr.spans[:0]

	s := newSeries()
	var fleetUS, svcUS []float64
	for i := 0; i < hitTracePrefix; i++ {
		body := w.body(i)
		start := tr.now()
		pf := prepare(http.MethodPost, "/v2/solve", body, false)
		f, err := serve(tr, i, "fleet.handler", rt, pf, http.StatusOK)
		if err != nil {
			return err
		}
		ps := prepare(http.MethodPost, "/v2/solve", body, false)
		h, err := serve(tr, i, "service.handler", srv, ps, http.StatusOK)
		if err != nil {
			return err
		}
		var req service.SolveRequestV2
		var hash string
		var rep solver.Report
		var hit bool
		calls := []span{
			tr.call(i, "service.decode", "request", func() { err = json.Unmarshal(body, &req) }),
		}
		if err != nil {
			return err
		}
		calls = append(calls,
			tr.call(i, "core.hash", "request", func() { hash = req.Instance.CanonicalHash() }),
			tr.call(i, "service.cache_get", "request", func() { rep, hit = cache.Get(solver.Auto, hash) }))
		if !hit {
			return fmt.Errorf("in-process hit replay: request %d missed the cache", i)
		}
		if req.Certificate {
			var c *cert.Certificate
			sp := tr.call(i, "cert.certify", "request", func() { c, err = solver.Certify(req.Instance, &rep) })
			if err != nil {
				return err
			}
			calls = append(calls, sp)
			cb, err := json.Marshal(c)
			if err != nil {
				return err
			}
			s.addSpan("cert.certify_us", sp)
			s.add("cert.bytes", "B", float64(len(cb)))
		}
		tr.record(i, "request", "", start, tr.now())
		fleetUS = append(fleetUS, us(f.dur()))
		svcUS = append(svcUS, us(h.dur()))
		s.addSpan("service.decode_us", calls[0])
		s.addSpan("core.hash_us", calls[1])
		s.addSpan("service.cache_get_us", calls[2])
		s.add("service.self_us", "us", us(selfTime(h, inHandlerOrder(h, calls))))
		s.add("service.bytes_in", "B", float64(len(body)))
		s.add("service.bytes_out", "B", float64(ps.w.n))
	}
	for i, runs := 0, 0; runs < allocRuns; i++ {
		if wantsCert(i) {
			continue
		}
		p := prepare(http.MethodPost, "/v2/solve", w.body(i), false)
		s.add("service.handler_allocs.solve_hit", "allocs", mallocs(func() { srv.ServeHTTP(p.w, p.req) }))
		runs++
	}
	fleetP50, svcP50 := median(fleetUS), median(svcUS)
	b.report("fleet.hop_us", fleetP50-svcP50, "us", len(fleetUS))
	b.report("service.handler_us.solve_hit", svcP50, "us", len(svcUS))
	b.report("http.overhead_us", clientP50us-fleetP50, "us", len(fleetUS))
	b.reportAll(s)
	b.spans = append(b.spans, tr.spans...)
	return b.writeSpans()
}

// autoCandidates lists the polynomial engines the auto portfolio races
// on in, by the same capability filter auto applies.
func autoCandidates(in *core.Instance) []solver.Engine {
	var out []solver.Engine
	for _, e := range solver.Engines() {
		c := e.Capabilities()
		switch {
		case c.Name == solver.Auto || c.Name == solver.Decomp || c.Hetero || c.Delta:
		case c.Cost != solver.CostPolynomial:
		case !c.SupportsDMax && !in.NoD():
		case c.MaxNodes > 0 && in.Tree.Len() > c.MaxNodes:
		case !in.Feasible(c.Policy):
		default:
			out = append(out, e)
		}
	}
	return out
}

// traceMissInProcess replays a prefix of the miss sequence: each
// request misses an in-process fleet and a standalone service, then
// the miss path's public calls are timed one by one, and so is each
// engine the auto portfolio races.
func traceMissInProcess(b *bench, w *missWorkload, clientP50us float64) error {
	fl := fleet.New(fleet.Config{Workers: 2, Replication: 1})
	defer fl.Close()
	rt := fl.Router()
	srv := service.New(service.Options{CacheSize: service.DefaultCacheSize})
	defer srv.Close()
	cache := service.NewCache(service.DefaultCacheSize)
	auto := solver.MustLookup(solver.Auto)
	ctx := context.Background()
	tr := newTracer(time.Now())

	s := newSeries()
	var fleetUS, svcUS []float64
	wins := map[string]int{}
	var candidates []string
	n := min(missTracePrefix, len(w.items))
	for i := 0; i < n; i++ {
		body := w.body(i)
		start := tr.now()
		f, err := serve(tr, i, "fleet.handler", rt, prepare(http.MethodPost, "/v2/solve", body, false), http.StatusOK)
		if err != nil {
			return err
		}
		ps := prepare(http.MethodPost, "/v2/solve", body, false)
		h, err := serve(tr, i, "service.handler", srv, ps, http.StatusOK)
		if err != nil {
			return err
		}
		var req service.SolveRequestV2
		var hash string
		var rep solver.Report
		var hit bool
		calls := []span{tr.call(i, "service.decode", "request", func() { err = json.Unmarshal(body, &req) })}
		if err != nil {
			return err
		}
		in := req.Instance
		calls = append(calls,
			tr.call(i, "core.hash", "request", func() { hash = in.CanonicalHash() }),
			tr.call(i, "service.cache_get", "request", func() { _, hit = cache.Get(solver.Auto, hash) }),
			tr.call(i, "solver.solve", "request", func() {
				sc := solver.GetScratch()
				rep, err = auto.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
				if err == nil {
					rep.Solution = rep.Solution.Clone()
				}
				solver.PutScratch(sc)
			}))
		if err != nil {
			return err
		}
		if hit {
			return fmt.Errorf("in-process miss replay: request %d hit the cache", i)
		}
		calls = append(calls,
			tr.call(i, "core.verify", "request", func() { err = core.Verify(in, rep.Policy, rep.Solution) }),
			tr.call(i, "service.cache_put", "request", func() { cache.Put(solver.Auto, hash, rep) }))
		if err != nil {
			return err
		}
		lb := tr.call(i, "core.lower_bound", "request", func() { _ = core.LowerBound(in) })
		names := []string{}
		for _, e := range autoCandidates(in) {
			creq := solver.Request{Instance: in, Hints: map[string]string{"no-lower-bound": "1"}}
			// A candidate that refuses the instance still costs the race
			// its time, so failures are timed too.
			s.addSpan("solver.solve_us."+e.Name(), tr.call(i, "solver.solve."+e.Name(), "request", func() { _, _ = e.Solve(ctx, creq) }))
			names = append(names, e.Name())
		}
		if candidates == nil {
			candidates = names
		}
		wins[rep.Engine]++
		tr.record(i, "request", "", start, tr.now())
		fleetUS = append(fleetUS, us(f.dur()))
		svcUS = append(svcUS, us(h.dur()))
		s.addSpan("service.decode_us", calls[0])
		s.addSpan("core.hash_us", calls[1])
		s.addSpan("service.cache_get_us", calls[2])
		s.addSpan("solver.solve_us.auto", calls[3])
		s.addSpan("core.verify_us", calls[4])
		s.addSpan("core.lower_bound_us", lb)
		s.add("service.self_us", "us", us(selfTime(h, inHandlerOrder(h, calls))))
		s.add("service.bytes_in", "B", float64(len(body)))
		s.add("service.bytes_out", "B", float64(ps.w.n))
	}
	for i := 0; i < min(missAllocRuns, n); i++ {
		in := w.items[i].in
		s.add("solver.solve_allocs.auto", "allocs", mallocs(func() {
			sc := solver.GetScratch()
			if rep, err := auto.Solve(ctx, solver.Request{Instance: in, Scratch: sc}); err == nil {
				_ = rep.Solution.Clone()
			}
			solver.PutScratch(sc)
		}))
	}
	fleetP50, svcP50 := median(fleetUS), median(svcUS)
	b.report("service.handler_us.solve_miss", svcP50, "us", len(svcUS))
	b.report("http.overhead_us", clientP50us-fleetP50, "us", len(fleetUS))
	sort.Strings(candidates)
	for _, name := range candidates {
		b.report("solver.auto_winner."+name, float64(wins[name])/float64(n), "share", n)
	}
	b.reportAll(s)
	b.spans = append(b.spans, tr.spans...)
	return b.writeSpans()
}

// traceChurnInProcess replays a prefix of both sessions' mutations
// against an in-process service and, call by call, against mirror
// delta sessions that see the same mutations.
func traceChurnInProcess(b *bench, w *churnWorkload, clientP50us float64) error {
	srv := service.New(service.Options{CacheSize: service.DefaultCacheSize, JobWorkers: 2, JobQueue: 64})
	defer srv.Close()
	ctx := context.Background()
	tr := newTracer(time.Now())
	mirrors := make([]*delta.Session, len(w.sessions))
	for c, cs := range w.sessions {
		if _, err := serve(tr, -1, "setup", srv, prepare(http.MethodPut, "/v2/instances/"+cs.id, cs.put, false), http.StatusCreated); err != nil {
			return err
		}
		if _, err := serve(tr, -1, "setup", srv, prepare(http.MethodGet, "/v2/instances/"+cs.id+"/solution", nil, false), http.StatusOK); err != nil {
			return err
		}
		sess, err := delta.New(cs.in, churnEngine)
		if err != nil {
			return err
		}
		defer sess.Close()
		if _, err := sess.Resolve(ctx); err != nil {
			return err
		}
		mirrors[c] = sess
	}
	tr.spans = tr.spans[:0]

	s := newSeries()
	var svcUS []float64
	for j := 0; j < churnTracePrefix; j++ {
		for c, cs := range w.sessions {
			id := j*len(w.sessions) + c
			body := w.body(c, j)
			start := tr.now()
			ps := prepare(http.MethodPost, "/v2/instances/"+cs.id+"/mutate", body, false)
			h, err := serve(tr, id, "service.handler", srv, ps, http.StatusOK)
			if err != nil {
				return err
			}
			var req service.MutateRequest
			var rep solver.Report
			sess := mirrors[c]
			calls := []span{tr.call(id, "service.decode", "request", func() { err = json.Unmarshal(body, &req) })}
			if err != nil {
				return err
			}
			calls = append(calls, tr.call(id, "delta.apply", "request", func() { err = sess.Apply(req.Mutations) }))
			if err != nil {
				return err
			}
			calls = append(calls, tr.call(id, "delta.resolve", "request", func() { rep, err = sess.Resolve(ctx) }))
			if err != nil {
				return err
			}
			tr.record(id, "request", "", start, tr.now())
			svcUS = append(svcUS, us(h.dur()))
			s.addSpan("service.decode_us", calls[0])
			s.addSpan("delta.apply_us", calls[1])
			s.addSpan("delta.resolve_us", calls[2])
			s.add("delta.churn", "replicas", float64(len(rep.Churn.Added)+len(rep.Churn.Removed)))
			s.add("service.self_us", "us", us(selfTime(h, inHandlerOrder(h, calls))))
			s.add("service.bytes_in", "B", float64(len(body)))
			s.add("service.bytes_out", "B", float64(ps.w.n))
		}
	}
	svcP50 := median(svcUS)
	b.report("service.handler_us.mutate", svcP50, "us", len(svcUS))
	b.report("http.overhead_us", clientP50us-svcP50, "us", len(svcUS))
	// delta.churn is reported as a mean, like mean_churn.
	churn := s.m["delta.churn"]
	delete(s.m, "delta.churn")
	s.order = removeName(s.order, "delta.churn")
	b.report("delta.churn", mean(churn.xs), churn.unit, len(churn.xs))
	b.reportAll(s)
	b.spans = append(b.spans, tr.spans...)
	return b.writeSpans()
}

func removeName(names []string, drop string) []string {
	out := names[:0]
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// writeSpans dumps every span of the run under the output directory.
func (b *bench) writeSpans() error {
	if b.outDir == "" {
		return nil
	}
	dir := filepath.Join(b.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed)
	if b.pass {
		name = fmt.Sprintf("%s-seed%d.%s-pass.jsonl", b.owner, b.seed, b.workload)
	}
	path := filepath.Join(dir, name)
	b.say("spans: %d written to %s", len(b.spans), path)
	return writeSpans(path, b.spans)
}
