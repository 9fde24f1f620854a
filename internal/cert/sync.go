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

// Entries returns a copy of the recorded assertions — unlike
// Journal.Entries the slice is the caller's to keep, since the journal
// may keep growing concurrently.
func (s *SyncJournal[N, L]) Entries() []Entry[N, L] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry[N, L], s.j.Len())
	copy(out, s.j.Entries())
	return out
}

// Persisted reports whether a store has marked an assertion with e's
// endpoints and label persisted.
func (s *SyncJournal[N, L]) Persisted(e Entry[N, L]) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.j.find(e.N, e.M, e.Label)
	return i >= 0 && s.j.persisted[i]
}

// MarkPersisted marks the assertion e persisted, recording it first
// when the journal lacks it (a store appending assertions no recording
// union-find saw). It reports whether the mark is new: false means an
// equal assertion was already persisted. A store calls it only once
// e's record is written, so a failed append leaves the entry unmarked.
func (s *SyncJournal[N, L]) MarkPersisted(e Entry[N, L]) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.j.find(e.N, e.M, e.Label)
	if i < 0 {
		i = s.j.add(e.N, e.M, e.Label, e.Reason)
	}
	fresh := !s.j.persisted[i]
	s.j.persisted[i] = true
	return fresh
}

// MarkReplayed marks persisted every entry of a journal rebuilt by
// replaying n records in order, where at(p) is record p, and returns
// the position of each entry's first record, in journal order. The
// journal then holds the records' distinct assertions in
// first-occurrence order, so one merge pass with a single comparison
// per record matches every entry to its first record; a record equal
// to no pending entry duplicates an earlier one.
func (s *SyncJournal[N, L]) MarkReplayed(n int, at func(p int) Entry[N, L]) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.j
	firsts := make([]int, 0, len(j.entries))
	for p := 0; p < n && len(firsts) < len(j.entries); p++ {
		e := &j.entries[len(firsts)]
		if r := at(p); r.N == e.N && r.M == e.M && j.g.Equal(r.Label, e.Label) {
			j.persisted[len(firsts)] = true
			firsts = append(firsts, p)
		}
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
