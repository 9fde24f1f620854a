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
// The journal keeps a node table: each distinct node gets a dense
// int32 id on first sight, entries store their endpoints as ids, and
// each node's adjacency list is threaded through the entries
// themselves (every entry carries the next entry touching either
// endpoint), so chain search and deduplication run on ids and an
// entry's endpoints are never stored twice.
//
// Duplicate assertions (same endpoints and label) are recorded once,
// keeping the first reason — fixpoint engines re-assert the same
// relations every iteration, and duplicates would bloat the log
// without adding derivable facts. A duplicate is found by scanning the
// shorter adjacency list of its two endpoints, so deduplication keeps
// no key per entry.
// Each entry also carries a persisted mark, which a durable store sets
// through SyncJournal once the entry's record is on disk: the store
// keeps no entry list or dedup index of its own, only entry indices.
//
// A Journal is not safe for concurrent use.
type Journal[N comparable, L any] struct {
	g         group.Group[L]
	ids       map[N]int32 // node -> index in nodes
	nodes     []node[N]
	entries   []entry[L]
	persisted []uint64 // bitset by entry index: record written by a store
}

// node is one row of the node table: the node and its adjacency list,
// the entries touching it in index order, linked through the entries.
type node[N any] struct {
	name       N
	head, tail int32 // first and last entry of the list, -1 when empty
	deg        int32 // list length
}

// entry is a recorded assertion with its endpoints as node ids. nextN
// and nextM link it into the adjacency lists of n and m; a self-loop
// sits in one list, through nextN.
type entry[L any] struct {
	n, m         int32
	nextN, nextM int32 // next entry touching n (resp. m), -1 at the end
	label        L
	reason       string
}

// next returns the entry after e in node x's adjacency list.
func (e *entry[L]) next(x int32) int32 {
	if e.n == x {
		return e.nextN
	}
	return e.nextM
}

// NewJournal returns an empty journal over the label group g.
func NewJournal[N comparable, L any](g group.Group[L]) *Journal[N, L] {
	return &Journal[N, L]{
		g:   g,
		ids: map[N]int32{},
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
	x, y := j.intern(n), j.intern(m)
	if j.findIDs(x, y, l) < 0 {
		j.add(x, y, l, reason)
	}
}

// intern returns x's node id, adding x to the node table when new.
func (j *Journal[N, L]) intern(x N) int32 {
	if id, ok := j.ids[x]; ok {
		return id
	}
	id := int32(len(j.nodes))
	j.ids[x] = id
	j.nodes = append(j.nodes, node[N]{name: x, head: -1, tail: -1})
	return id
}

// add appends an entry known not to be recorded yet between the
// interned nodes x and y and returns its index.
func (j *Journal[N, L]) add(x, y int32, l L, reason string) int32 {
	idx := int32(len(j.entries))
	j.entries = append(j.entries, entry[L]{n: x, m: y, nextN: -1, nextM: -1, label: l, reason: reason})
	if idx%64 == 0 {
		j.persisted = append(j.persisted, 0)
	}
	j.link(x, idx)
	if y != x {
		j.link(y, idx)
	}
	return idx
}

// link appends entry idx to node x's adjacency list.
func (j *Journal[N, L]) link(x, idx int32) {
	nd := &j.nodes[x]
	if nd.tail < 0 {
		nd.head = idx
	} else if t := &j.entries[nd.tail]; t.n == x {
		t.nextN = idx
	} else {
		t.nextM = idx
	}
	nd.tail = idx
	nd.deg++
}

// find returns the index of the recorded assertion n --l--> m (same
// endpoints in the same orientation, Equal label), or -1 when it was
// never recorded.
func (j *Journal[N, L]) find(n, m N, l L) int32 {
	x, ok := j.ids[n]
	if !ok {
		return -1
	}
	y, ok := j.ids[m]
	if !ok {
		return -1
	}
	return j.findIDs(x, y, l)
}

// findIDs is find over node ids. It scans the shorter adjacency list
// of the two endpoints.
func (j *Journal[N, L]) findIDs(x, y int32, l L) int32 {
	w := x
	if y != x && j.nodes[y].deg < j.nodes[x].deg {
		w = y
	}
	for idx := j.nodes[w].head; idx >= 0; {
		e := &j.entries[idx]
		if e.n == x && e.m == y && j.g.Equal(e.label, l) {
			return idx
		}
		idx = e.next(w)
	}
	return -1
}

// isPersisted reports entry idx's persisted mark.
func (j *Journal[N, L]) isPersisted(idx int32) bool {
	return j.persisted[idx/64]&(1<<(idx%64)) != 0
}

// markPersisted sets entry idx's persisted mark.
func (j *Journal[N, L]) markPersisted(idx int32) {
	j.persisted[idx/64] |= 1 << (idx % 64)
}

// entryAt materializes entry idx.
func (j *Journal[N, L]) entryAt(idx int32) Entry[N, L] {
	e := &j.entries[idx]
	return Entry[N, L]{N: j.nodes[e.n].name, M: j.nodes[e.m].name, Label: e.label, Reason: e.reason}
}

// Len returns the number of recorded assertions.
func (j *Journal[N, L]) Len() int { return len(j.entries) }

// Entries returns a copy of the recorded assertions, in recording
// order. The journal stores entries in node-id form, so each call
// materializes a fresh slice, which is the caller's to keep.
func (j *Journal[N, L]) Entries() []Entry[N, L] {
	out := make([]Entry[N, L], len(j.entries))
	for i := range out {
		out[i] = j.entryAt(int32(i))
	}
	return out
}

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
// over the recorded assertions, traversed in either direction. Each
// node's assertions are visited in recording order.
func (j *Journal[N, L]) chain(x, y N) ([]Step[N, L], error) {
	if x == y {
		return nil, nil
	}
	src, okx := j.ids[x]
	dst, oky := j.ids[y]
	if okx && oky {
		type via struct {
			entry    int32
			from     int32
			reversed bool
		}
		prev := map[int32]via{src: {entry: -1}}
		queue := []int32{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for idx := j.nodes[cur].head; idx >= 0; idx = j.entries[idx].next(cur) {
				e := &j.entries[idx]
				next, reversed := e.m, false
				if e.m == cur {
					next, reversed = e.n, true
				}
				if _, ok := prev[next]; ok {
					continue
				}
				prev[next] = via{entry: idx, from: cur, reversed: reversed}
				if next == dst {
					// Reconstruct the chain back to x.
					var rev []Step[N, L]
					for at := dst; at != src; {
						v := prev[at]
						e := j.entryAt(v.entry)
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
	}
	return nil, fault.Invariantf(
		"journal (%d assertions) cannot derive a chain between %v and %v", len(j.entries), x, y)
}
