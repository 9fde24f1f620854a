package wal

import (
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
