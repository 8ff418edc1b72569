package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// httpReq is one request of a seeded sequence.
type httpReq struct {
	method, path string
	body         []byte
	want         int // expected status
}

// sequence hands a closed-loop connection its next request. seq is the
// request's position in its connection's sequence (or the shared
// sequence, for sources that share one).
type sequence interface {
	next(conn int) (seq int, req httpReq, ok bool)
	// prefixDone reports whether every request of the fixed-size
	// prefix the quality metrics are computed over has been issued.
	prefixDone() bool
	// keep reports whether the response to seq is kept for checking.
	keep(conn, seq int) bool
}

// sharedSeq serves one sequence to all connections in order.
type sharedSeq struct {
	n, prefix, sampleEvery int
	req                    func(i int) httpReq
	pos                    atomic.Int64
}

func (s *sharedSeq) next(int) (int, httpReq, bool) {
	i := int(s.pos.Add(1) - 1)
	if i >= s.n {
		return i, httpReq{}, false
	}
	return i, s.req(i), true
}

func (s *sharedSeq) prefixDone() bool         { return int(s.pos.Load()) >= s.prefix }
func (s *sharedSeq) keep(_ int, seq int) bool { return seq < s.prefix || seq%s.sampleEvery == 0 }

// perConnSeq gives each connection its own sequence.
type perConnSeq struct {
	prefix, sampleEvery int
	req                 func(conn, i int) httpReq
	pos                 []atomic.Int64
}

func (s *perConnSeq) next(conn int) (int, httpReq, bool) {
	i := int(s.pos[conn].Add(1) - 1)
	return i, s.req(conn, i), true
}

func (s *perConnSeq) prefixDone() bool {
	for i := range s.pos {
		if int(s.pos[i].Load()) < s.prefix {
			return false
		}
	}
	return true
}

func (s *perConnSeq) keep(_ int, seq int) bool { return seq < s.prefix || seq%s.sampleEvery == 0 }

// sample is the outcome of one request.
type sample struct {
	conn, seq int
	lat       time.Duration
	ok        bool
	err       string
	body      []byte // kept responses only
}

// loopResult is one closed-loop window.
type loopResult struct {
	samples []sample
	elapsed time.Duration // start to the last completion
	spans   []span        // client request spans (traced windows only)
}

// newClient returns an HTTP client with at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// closedLoop runs conns connections, each sending its next request only
// after the previous answer arrived, until the window has lasted d and
// the sequence's prefix has been issued. With traced set, each request
// is recorded as a client-side span.
func closedLoop(client *http.Client, base string, conns int, src sequence, d time.Duration, traced bool) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, conns)
	tracers := make([]*tracer, conns)
	last := make([]time.Time, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		tracers[c] = newTracer(start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for !(time.Now().After(deadline) && src.prefixDone()) {
				seq, req, ok := src.next(c)
				if !ok {
					break
				}
				t0 := tracers[c].now()
				status, err := roundTrip(client, base, req, &buf)
				t1 := tracers[c].now()
				if traced {
					tracers[c].record(seq, "request", "", t0, t1)
				}
				s := sample{conn: c, seq: seq, lat: time.Duration(t1 - t0), ok: err == nil && status == req.want}
				if err != nil {
					s.err = err.Error()
				} else if !s.ok {
					s.err = fmt.Sprintf("status %d: %.200s", status, buf.String())
				}
				if s.ok && src.keep(c, seq) {
					s.body = bytes.Clone(buf.Bytes())
				}
				per[c] = append(per[c], s)
				last[c] = start.Add(time.Duration(t1))
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{}
	end := start
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		res.spans = append(res.spans, tracers[c].spans...)
		if last[c].After(end) {
			end = last[c]
		}
	}
	res.elapsed = end.Sub(start)
	return res
}

// roundTrip sends one request and reads the whole answer into buf.
func roundTrip(client *http.Client, base string, req httpReq, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequest(req.method, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// latencies returns the latencies of the successful samples.
func (r loopResult) latencies() []time.Duration {
	out := make([]time.Duration, 0, len(r.samples))
	for _, s := range r.samples {
		if s.ok {
			out = append(out, s.lat)
		}
	}
	return out
}
