package wal

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"luf/internal/cert"
	"luf/internal/group"
)

// TestAssertAllocationBudget pins the heap allocations of the durable
// write path. A fresh assertion through the recording union-find, its
// certificate journal and Store.Append must stay within 12 allocations:
// the journal is the store's only dedup index, so persisting an
// assertion builds no key strings and inserts into no map of the
// store's own. A duplicate Journal.Record, found by scanning an
// adjacency list, must not allocate at all.
func TestAssertAllocationBudget(t *testing.T) {
	st, rec, err := Open(t.TempDir(), group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const runs = 2000
	nodes := make([]string, 2*(runs+1))
	for i := range nodes {
		nodes[i] = "node-" + strconv.Itoa(i)
	}
	i := 0
	fresh := testing.AllocsPerRun(runs, func() {
		e := cert.Entry[string, int64]{N: nodes[2*i], M: nodes[2*i+1], Label: int64(i), Reason: "budget"}
		i++
		if !rec.UF.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
			t.Fatal("fresh assertion conflicted")
		}
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	})
	if fresh > 12 {
		t.Errorf("fresh assert through UF + journal + Store.Append: %.1f allocations, budget 12", fresh)
	}
	t.Logf("fresh assert: %.1f allocations", fresh)

	j := cert.NewJournal[string, int64](group.Delta{})
	j.Record("a", "b", 3, "first")
	dup := testing.AllocsPerRun(runs, func() { j.Record("a", "b", 3, "again") })
	if dup != 0 {
		t.Errorf("duplicate Journal.Record: %.1f allocations, want 0", dup)
	}
}

// TestOpenRetainedHeap pins the resident cost of a recovered store:
// after wal.Open on a history of 2·10^4 distinct assertions over 10^4
// nodes (the shape of the service benchmark's preloaded state), the
// store, its record mirror, the certificate journal and the rebuilt
// union-find together must retain at most 200 bytes per distinct
// assertion. The journal keeps each endpoint once, in its node table,
// and the mirror keeps an index per record instead of a copy.
func TestOpenRetainedHeap(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const asserts, nodes = 20000, 10000
	// Labels are potential differences, so every assertion is
	// consistent; a pair is drawn again until the assertion is new.
	rng := rand.New(rand.NewSource(1))
	pot := make([]int64, nodes)
	for i := range pot {
		pot[i] = rng.Int63n(1000)
	}
	seen := map[[2]int]bool{}
	for i := 0; i < asserts; {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		e := cert.Entry[string, int64]{
			N: "node-" + strconv.Itoa(a), M: "node-" + strconv.Itoa(b),
			Label: pot[b] - pot[a], Reason: "load-" + strconv.Itoa(i),
		}
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, rec, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perAssert := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / asserts
	runtime.KeepAlive(rec)
	if st.Len() != asserts {
		t.Fatalf("recovered %d assertions, want %d", st.Len(), asserts)
	}
	st.Close()
	t.Logf("wal.Open retains %.0f bytes per distinct assertion", perAssert)
	if perAssert > 200 {
		t.Errorf("wal.Open retains %.0f bytes per distinct assertion, budget 200", perAssert)
	}
}
