package cert

import (
	"sync"

	"luf/internal/group"
)

// SyncJournal is a Journal safe for concurrent use: a serving layer
// records accepted assertions from many goroutines while other
// goroutines run Explain for certificate endpoints. Recording takes the
// write lock; Explain, ExplainConflict and the accessors take the read
// lock, so explanations always see a consistent journal prefix.
//
// The plain Journal stays the right choice for single-owner engines
// (solver, analyzer, recovery replay); SyncJournal exists for the
// serving path, where the concurrent union-find's recorder hook and the
// HTTP explain handlers race.
type SyncJournal[N comparable, L any] struct {
	mu sync.RWMutex
	j  *Journal[N, L]
}

// NewSyncJournal returns an empty concurrency-safe journal wrapping
// NewJournal(g).
func NewSyncJournal[N comparable, L any](g group.Group[L]) *SyncJournal[N, L] {
	return &SyncJournal[N, L]{j: NewJournal[N, L](g)}
}

// Record appends an accepted assertion under the write lock. Its
// signature matches the recorder hooks of core.WithRecorder and
// concurrent.WithRecorder.
func (s *SyncJournal[N, L]) Record(n, m N, l L, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j.Record(n, m, l, reason)
}

// Len returns the number of recorded assertions.
func (s *SyncJournal[N, L]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.Len()
}

// Entries returns a copy of the recorded assertions; see
// Journal.Entries.
func (s *SyncJournal[N, L]) Entries() []Entry[N, L] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.Entries()
}

// EntriesAt sets dst[k] to the entry at index ids[k], for every
// k < len(dst), under one read lock. Indices are those MarkPersisted
// and MarkReplayed report: a store keeps them instead of entry copies
// and materializes its records through this call.
func (s *SyncJournal[N, L]) EntriesAt(dst []Entry[N, L], ids []int32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, idx := range ids[:len(dst)] {
		dst[k] = s.j.entryAt(idx)
	}
}

// Persisted reports whether a store has marked an assertion with e's
// endpoints and label persisted.
func (s *SyncJournal[N, L]) Persisted(e Entry[N, L]) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.j.find(e.N, e.M, e.Label)
	return i >= 0 && s.j.isPersisted(i)
}

// MarkPersisted marks the assertion e persisted, recording it first
// when the journal lacks it (a store appending assertions no recording
// union-find saw). It returns the entry's index, whether the mark is
// new (false means an equal assertion was already persisted), and
// whether the entry's reason is e.Reason (false when an equal
// assertion was recorded first under another reason). A store calls it
// only once e's record is written, so a failed append leaves the entry
// unmarked.
func (s *SyncJournal[N, L]) MarkPersisted(e Entry[N, L]) (idx int32, fresh, sameReason bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.j
	x, y := j.intern(e.N), j.intern(e.M)
	idx = j.findIDs(x, y, e.Label)
	if idx < 0 {
		idx = j.add(x, y, e.Label, e.Reason)
	}
	fresh = !j.isPersisted(idx)
	j.markPersisted(idx)
	return idx, fresh, j.entries[idx].reason == e.Reason
}

// MarkReplayed marks persisted every entry of a journal rebuilt by
// replaying n records in order, where at(p) is record p. It sets
// ids[p] to the index of record p's entry, for every p < n, and
// returns the position of each entry's first record, in journal order.
// The journal then holds the records' distinct assertions in
// first-occurrence order, so one merge pass with a single comparison
// per record matches every entry to its first record; a record equal
// to no pending entry duplicates an earlier one and is looked up.
func (s *SyncJournal[N, L]) MarkReplayed(n int, at func(p int) Entry[N, L], ids []int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.j
	firsts := make([]int32, 0, len(j.entries))
	for p := 0; p < n; p++ {
		r := at(p)
		if next := int32(len(firsts)); int(next) < len(j.entries) {
			if e := &j.entries[next]; r.N == j.nodes[e.n].name && r.M == j.nodes[e.m].name && j.g.Equal(r.Label, e.label) {
				j.markPersisted(next)
				firsts = append(firsts, int32(p))
				ids[p] = next
				continue
			}
		}
		ids[p] = j.find(r.N, r.M, r.Label)
	}
	return firsts
}

// Explain returns a Relation certificate for x and y under the read
// lock; see Journal.Explain.
func (s *SyncJournal[N, L]) Explain(x, y N) (Certificate[N, L], error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.Explain(x, y)
}

// ExplainConflict returns a Conflict certificate under the read lock;
// see Journal.ExplainConflict.
func (s *SyncJournal[N, L]) ExplainConflict(x, y N, newLabel L, reason string) (Certificate[N, L], error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.ExplainConflict(x, y, newLabel, reason)
}
