package cert

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"luf/internal/group"
)

// refChain is the reference chain search: breadth-first over an
// adjacency map built from Entries, each node's entries in recording
// order (a self-loop listed once), with the minimal chain rebuilt from
// predecessor links. It keys everything by node value, independently
// of the journal's node table.
func refChain(entries []Entry[string, int64], x, y string) ([]Step[string, int64], bool) {
	if x == y {
		return nil, true
	}
	adj := map[string][]int{}
	for i, e := range entries {
		adj[e.N] = append(adj[e.N], i)
		if e.M != e.N {
			adj[e.M] = append(adj[e.M], i)
		}
	}
	type via struct {
		entry    int
		reversed bool
		from     string
	}
	prev := map[string]via{x: {entry: -1}}
	queue := []string{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, idx := range adj[cur] {
			e := entries[idx]
			next, reversed := e.M, false
			if e.M == cur {
				next, reversed = e.N, true
			}
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = via{entry: idx, reversed: reversed, from: cur}
			if next != y {
				queue = append(queue, next)
				continue
			}
			var steps []Step[string, int64]
			for at := y; at != x; at = prev[at].from {
				v := prev[at]
				e := entries[v.entry]
				steps = append(steps, Step[string, int64]{N: e.N, M: e.M, Label: e.Label, Reversed: v.reversed, Reason: e.Reason})
			}
			slices.Reverse(steps)
			return steps, true
		}
	}
	return nil, false
}

// TestExplainMatchesReferenceBFS records random assertion streams —
// self-loops, both orientations of one pair, exact duplicates under new
// reasons — and checks that Entries keeps each distinct assertion once
// under its first reason, and that Explain returns, for every pair of
// nodes (and for nodes the journal never saw), exactly the steps of
// the reference search over Entries.
func TestExplainMatchesReferenceBFS(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodes := 2 + rng.Intn(9)
			name := func(i int) string { return "n" + strconv.Itoa(i) }
			j := NewJournal[string, int64](group.Delta{})
			var want []Entry[string, int64]
			seen := map[[3]string]bool{}
			for i, n := 0, rng.Intn(45); i < n; i++ {
				e := Entry[string, int64]{
					N: name(rng.Intn(nodes)), M: name(rng.Intn(nodes)),
					Label: int64(rng.Intn(3)), Reason: "r" + strconv.Itoa(i),
				}
				if rng.Intn(6) == 0 {
					e.M = e.N
				}
				if len(want) > 0 && rng.Intn(5) == 0 {
					d := want[rng.Intn(len(want))]
					e.N, e.M, e.Label = d.N, d.M, d.Label
					if rng.Intn(2) == 0 {
						e.N, e.M, e.Label = d.M, d.N, -d.Label
					}
				}
				j.Record(e.N, e.M, e.Label, e.Reason)
				if k := [3]string{e.N, e.M, strconv.FormatInt(e.Label, 10)}; !seen[k] {
					seen[k] = true
					want = append(want, e)
				}
			}
			got := j.Entries()
			if !slices.Equal(got, want) {
				t.Fatalf("Entries = %v, want %v", got, want)
			}
			if len(got) > 0 {
				got[0].Reason = "overwritten"
				if j.Entries()[0].Reason == "overwritten" {
					t.Fatal("Entries shares its slice with the journal")
				}
			}
			for x := 0; x <= nodes; x++ {
				for y := 0; y <= nodes; y++ {
					// Index nodes is a node the journal never saw.
					steps, ok := refChain(want, name(x), name(y))
					c, err := j.Explain(name(x), name(y))
					if (err == nil) != ok {
						t.Fatalf("Explain(%s, %s): err = %v, reference found a chain: %v", name(x), name(y), err, ok)
					}
					if ok && !slices.Equal(c.Steps, steps) {
						t.Fatalf("Explain(%s, %s) steps = %v, reference %v", name(x), name(y), c.Steps, steps)
					}
				}
			}
		})
	}
}
