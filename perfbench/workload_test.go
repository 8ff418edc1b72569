package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"replicatree/internal/service"
)

// sequenceOf renders the first n request bodies of every workload a
// seed defines, in order.
func sequenceOf(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	hit, err := newHitWorkload(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		out = append(out, hit.body(i))
	}
	miss, err := newMissWorkload(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range miss.warm {
		out = append(out, it.body)
	}
	for i := 0; i < n; i++ {
		out = append(out, miss.body(i))
	}
	churn, err := newChurnWorkload(seed)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range churn.sessions {
		out = append(out, s.put)
		for j := 0; j < n; j++ {
			out = append(out, churn.body(c, j))
		}
	}
	dec, err := newDecompWorkload(seed, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, dec.chunked)
}

func TestSeededSequencesRepeatExactly(t *testing.T) {
	a, b := sequenceOf(t, 7, 40), sequenceOf(t, 7, 40)
	if len(a) != len(b) {
		t.Fatalf("sequence lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
	c := sequenceOf(t, 8, 40)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	// Every request embeds a seed-drawn tree or mutation, so none may
	// coincide across seeds.
	if same > 0 {
		t.Errorf("%d of %d requests are identical under seeds 7 and 8", same, len(a))
	}
}

func TestWorkloadShapes(t *testing.T) {
	hit, err := newHitWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range hit.keys {
		if n := it.in.Tree.Len(); n <= 192 || n != hitShape.lo {
			t.Fatalf("hit instance has %d nodes, want %d, above the exact gate", n, hitShape.lo)
		}
	}
	certs := 0
	for i := 0; i < 400; i++ {
		if wantsCert(i) {
			certs++
			if !strings.Contains(string(hit.body(i)), `"certificate":true`) {
				t.Fatalf("position %d should ask for a certificate", i)
			}
		}
	}
	if certs != 100 {
		t.Errorf("%d of 400 requests ask for a certificate, want every 4th", certs)
	}
	churn, err := newChurnWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range churn.sessions {
		if s.in.W != churnShape.w || s.in.DMax != churnShape.dmax {
			t.Errorf("session %d: W=%d dmax=%d, want the shape's %d and %d", c, s.in.W, s.in.DMax, churnShape.w, churnShape.dmax)
		}
		for j := 0; j < 64; j++ {
			muts := churn.mutations(c, j)
			want := 1
			if j%churnBigEvery == churnBigEvery-1 {
				want = churnBigOps
			}
			if len(muts) != want {
				t.Fatalf("session %d mutate %d has %d ops, want %d", c, j, len(muts), want)
			}
			for _, m := range muts {
				if !s.in.Tree.IsClient(m.Node) || m.Requests < 1 || m.Requests > s.in.W {
					t.Fatalf("session %d mutate %d: infeasible %+v", c, j, m)
				}
			}
		}
	}
}

// TestChecksRejectWrongAnswers serves real answers in-process and
// checks that the client-side checks pass them and catch tampering.
func TestChecksRejectWrongAnswers(t *testing.T) {
	miss, err := newMissWorkload(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := miss.items[0]
	srv := service.New(service.Options{CacheSize: 16})
	defer srv.Close()
	answer := func() string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/solve", bytes.NewReader(it.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	fresh := answer()
	if _, err := checkSolve(it, []byte(fresh), false, false); err != nil {
		t.Fatalf("a correct fresh answer failed its check: %v", err)
	}
	cached := answer()
	if _, err := checkSolve(it, []byte(cached), true, false); err != nil {
		t.Fatalf("a correct cached answer failed its check: %v", err)
	}
	if _, err := checkSolve(it, []byte(cached), false, false); err == nil {
		t.Error("a cache hit passed as a miss")
	}
	if _, err := checkSolve(it, []byte(fresh), false, true); err == nil {
		t.Error("an answer without the asked-for certificate passed")
	}
	for _, bad := range []struct{ from, to string }{
		{`"lower_bound": `, `"lower_bound": 1`},
		{`"replicas": `, `"replicas": 9`},
	} {
		tampered := strings.Replace(fresh, bad.from, bad.to, 1)
		if _, err := checkSolve(it, []byte(tampered), false, false); err == nil {
			t.Errorf("tampering %q went unnoticed", bad.to)
		}
	}
}
