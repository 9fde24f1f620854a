package cert

import (
	"luf/internal/fault"
	"luf/internal/group"
)

// Entry is one accepted assertion in a journal: N --Label--> M held
// for Reason. Entries are exactly what the caller asserted — path
// compression, re-rooting and randomized linking never touch them.
type Entry[N comparable, L any] struct {
	N, M   N
	Label  L
	Reason string
}

// Journal is the recording side of certification: an append-only log
// of accepted assertions, indexed for breadth-first chain search. A
// union-find running in recording mode (core.WithRecorder) feeds every
// accepted AddRelation call into a Journal; Explain then recovers a
// minimal chain of assertions justifying any answer the structure
// gives.
//
// Duplicate assertions (same endpoints and label) are recorded once,
// keeping the first reason — fixpoint engines re-assert the same
// relations every iteration, and duplicates would bloat the log
// without adding derivable facts. A duplicate is found by scanning the
// shorter adjacency list of its two endpoints, so deduplication keeps
// no key per entry.
// Each entry also carries a persisted mark, which a durable store sets
// through SyncJournal once the entry's record is on disk: the store
// keeps no entry list or dedup index of its own.
//
// A Journal is not safe for concurrent use.
type Journal[N comparable, L any] struct {
	g         group.Group[L]
	entries   []Entry[N, L]
	adj       map[N][]int // node -> indices of entries touching it
	persisted []bool      // by entry index: record written by a store
}

// NewJournal returns an empty journal over the label group g.
func NewJournal[N comparable, L any](g group.Group[L]) *Journal[N, L] {
	return &Journal[N, L]{
		g:   g,
		adj: map[N][]int{},
	}
}

// Group returns the journal's label group.
func (j *Journal[N, L]) Group() group.Group[L] { return j.g }

// Record appends the accepted assertion n --l--> m with the given
// reason. Its signature matches core.WithRecorder's hook, so a journal
// plugs directly into a union-find:
//
//	j := cert.NewJournal[string, int64](group.Delta{})
//	u := core.New[string, int64](group.Delta{}, core.WithRecorder(j.Record))
func (j *Journal[N, L]) Record(n, m N, l L, reason string) {
	if j.find(n, m, l) < 0 {
		j.add(n, m, l, reason)
	}
}

// add appends an entry known not to be recorded yet and returns its
// index.
func (j *Journal[N, L]) add(n, m N, l L, reason string) int {
	idx := len(j.entries)
	j.entries = append(j.entries, Entry[N, L]{N: n, M: m, Label: l, Reason: reason})
	j.persisted = append(j.persisted, false)
	j.adj[n] = append(j.adj[n], idx)
	if m != n {
		j.adj[m] = append(j.adj[m], idx)
	}
	return idx
}

// find returns the index in Entries of the recorded assertion
// n --l--> m (same endpoints in the same orientation, Equal label), or
// -1 when it was never recorded. It scans the shorter adjacency list
// of the two endpoints.
func (j *Journal[N, L]) find(n, m N, l L) int {
	cand := j.adj[n]
	if m != n {
		if am := j.adj[m]; len(am) < len(cand) {
			cand = am
		}
	}
	for _, idx := range cand {
		if e := &j.entries[idx]; e.N == n && e.M == m && j.g.Equal(e.Label, l) {
			return idx
		}
	}
	return -1
}

// Len returns the number of recorded assertions.
func (j *Journal[N, L]) Len() int { return len(j.entries) }

// Entries returns the recorded assertions. The slice is shared — do
// not modify it.
func (j *Journal[N, L]) Entries() []Entry[N, L] { return j.entries }

// Explain returns a Relation certificate for x and y: a chain of
// recorded assertions from x to y, minimal in edge count
// (breadth-first search), with Label set to the chain's composition —
// the relation the assertions *derive*, independently of any
// union-find answer. Callers certifying a structure's answer overwrite
// Label with the answer before handing the certificate to Check, so a
// corrupted structure yields a certificate Check rejects.
//
// It reports an ErrInvariantViolated-classified error when the journal
// cannot connect x to y.
func (j *Journal[N, L]) Explain(x, y N) (Certificate[N, L], error) {
	steps, err := j.chain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	acc := j.g.Identity()
	for _, s := range steps {
		acc = j.g.Compose(acc, s.oriented(j.g))
	}
	return Certificate[N, L]{Kind: Relation, X: x, Y: y, Label: acc, Steps: steps}, nil
}

// ExplainConflict returns a Conflict certificate: the journal chain
// deriving the existing relation between x and y, plus the rejected
// assertion x --newLabel--> y (with its reason) that contradicts it.
// The step reasons plus the conflicting reason form the UNSAT core.
func (j *Journal[N, L]) ExplainConflict(x, y N, newLabel L, reason string) (Certificate[N, L], error) {
	c, err := j.Explain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	if j.g.Equal(c.Label, newLabel) {
		return Certificate[N, L]{}, fault.Invariantf(
			"ExplainConflict(%v, %v): asserted label %s agrees with the derived relation — no conflict",
			x, y, j.g.Format(newLabel))
	}
	c.Kind = Conflict
	c.Conflicting = &Step[N, L]{N: x, M: y, Label: newLabel, Reason: reason}
	return c, nil
}

// chain finds a minimal assertion chain x ⇝ y by breadth-first search
// over the recorded assertions, traversed in either direction.
func (j *Journal[N, L]) chain(x, y N) ([]Step[N, L], error) {
	if x == y {
		return nil, nil
	}
	type via struct {
		entry    int
		reversed bool
		from     N
	}
	prev := map[N]via{x: {entry: -1}}
	queue := []N{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, idx := range j.adj[cur] {
			e := j.entries[idx]
			next, reversed := e.M, false
			if e.M == cur {
				next, reversed = e.N, true
			}
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = via{entry: idx, reversed: reversed, from: cur}
			if next == y {
				// Reconstruct the chain back to x.
				var rev []Step[N, L]
				for at := y; at != x; {
					v := prev[at]
					e := j.entries[v.entry]
					rev = append(rev, Step[N, L]{
						N: e.N, M: e.M, Label: e.Label,
						Reversed: v.reversed, Reason: e.Reason,
					})
					at = v.from
				}
				steps := make([]Step[N, L], len(rev))
				for i := range rev {
					steps[i] = rev[len(rev)-1-i]
				}
				return steps, nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fault.Invariantf(
		"journal (%d assertions) cannot derive a chain between %v and %v", len(j.entries), x, y)
}
