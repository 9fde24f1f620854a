package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := quantile(mk(999), 0.99); ok {
		t.Fatal("p99 of 999 samples reported; it has only 9 beyond it")
	}
	v, ok := quantile(mk(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := quantile(mk(19), 0.5); ok {
		t.Fatal("p50 of 19 samples reported")
	}
	if v, ok := quantile(mk(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, q, ok := topQuantile(mk(200), 0.99); !ok || q != 0.95 {
		t.Fatalf("highest supported quantile of 200 samples = %v, %v; want 0.95", q, ok)
	}
}

func TestSeedDeterminesOpStream(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, 2)
		c, _ := newWorkload(name, 8, 2)
		if a.streamHash() != b.streamHash() {
			t.Errorf("%s: one seed gave two op streams", name)
		}
		if a.streamHash() == c.streamHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

func TestMixCountsAreExact(t *testing.T) {
	w, err := newWorkload("shard-mixed", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var n [numKinds]int
	for _, i := range seq(w.nominal) {
		n[w.ops[i].kind]++
	}
	for _, k := range []opKind{opRelation, opXUnion} {
		if n[k] < 1050 {
			t.Errorf("%s: %d in the nominal phase, need 1050 for a p99", kindName[k], n[k])
		}
	}
}

// A wrong label planted in the served union-find must be caught both by
// the per-op answer check and by the end-of-run check of acked writes.
func TestOracleCatchesPlantedWrongLabel(t *testing.T) {
	w := &workload{name: "tiny", seed: 1, or: oracle{seed: 1}, groups: 2, rate: 100, limit: 10}
	w.ops = []op{
		{kind: opAssert, n: "a", m: "b", dep: -1},
		{kind: opRelation, n: "a", m: "c", dep: -1},
	}
	tr := newTracer()
	c, err := startCluster(context.Background(), w, tr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	b := &bench{w: w, tr: tr, c: c, rep: &report{}, acked: make([]atomic.Bool, len(w.ops))}
	if err := b.dial(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if !b.exec(ctx, 0, 0) || b.wrongN != 0 {
		t.Fatalf("consistent assert: wrong %v", b.wrongList())
	}
	b.checkAcked("clean")
	if b.wrongN != 0 {
		t.Fatalf("clean state flagged: %v", b.wrongList())
	}
	// Plant a -> c off the oracle by one.
	uf := c.groups[0].primary.server().UF()
	if !uf.AddRelation("a", "c", w.or.label("a", "c")+1) {
		t.Fatal("planting failed")
	}
	b.exec(ctx, 0, 1)
	if b.wrongN != 1 || !strings.Contains(b.wrongList()[0], "a -> c") {
		t.Fatalf("relation answer off the oracle not caught: %v", b.wrongList())
	}
	b.acked[1].Store(true) // pretend the pair was acked as an assert
	b.w.ops[1].kind = opAssert
	b.checkAcked("planted")
	if b.wrongN != 2 {
		t.Fatalf("acked write off the oracle not caught: %v", b.wrongList())
	}
}

// One slow response must charge its delay to the requests queued
// behind it: latency runs from each op's scheduled send time.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 20 {
			time.Sleep(60 * time.Millisecond)
		}
	}))
	defer ts.Close()
	ops := make([]int, 60)
	kinds := make([]opKind, len(ops))
	for i := range ops {
		ops[i] = i
	}
	p := phase{ops: ops, kinds: kinds, rate: 1000, conns: 1, exec: func(ctx context.Context, _ int, _ int) bool {
		resp, err := http.Get(ts.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	}}
	res := p.run(context.Background())
	if len(res.samples) != len(ops) {
		t.Fatalf("%d samples, want %d", len(res.samples), len(ops))
	}
	lat := func(k int) time.Duration { return res.samples[k].latency() }
	if lat(19) < 55*time.Millisecond {
		t.Fatalf("stalled op latency %v, want >= 55ms", lat(19))
	}
	// Ops due during the stall waited for the one connection: op 29 was
	// due 10 ms after the stall began and started only when it ended.
	if lat(29) < 30*time.Millisecond {
		t.Fatalf("op queued behind the stall has latency %v, want >= 30ms", lat(29))
	}
	if lat(5) > 20*time.Millisecond {
		t.Fatalf("op before the stall has latency %v", lat(5))
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := selfTime(parent, children); got != 50 {
		t.Fatalf("self time %v, want 50 (100 - [10,50] - [90,100])", got)
	}
}
