package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
)

// Store is a durable assertion store: a directory holding one live
// journal (journal.wal) and at most one snapshot (snapshot.wal), with
// an in-memory sequence-ordered mirror of every persisted record for
// snapshotting and log shipping. It is safe for concurrent use.
//
// The store keeps no entry list or dedup index of its own: it dedups
// against the certificate journal its recovery built (Recovered.Journal,
// which serving keeps recording into), marking an assertion persisted
// there once its record is written. The record mirror is an index into
// that journal — per record, its sequence number and its entry's index
// — plus a side table holding the reason of any record whose reason
// differs from its entry's (a duplicate across a failover boundary, or
// a writer whose assertion was first recorded under another reason).
// Records are materialized from the journal when read, under the store
// lock and then the journal's read lock, always in that order.
//
// Sequence numbers are global, not per-file: a record keeps the number
// it was first assigned through snapshots, journal trims and
// replication, so "the record at sequence 17" means the same assertion
// on every replica. A primary allocates numbers with Append; followers
// write the primary's numbers verbatim with AppendReplicated.
type Store[N comparable, L any] struct {
	dir   string
	g     group.Group[L]
	codec Codec[N, L]
	log   *Log

	mu    sync.Mutex
	seq   uint64 // last allocated sequence number
	fence uint64 // highest accepted fencing token
	// Record i of the mirror has sequence number seqs[i] and holds
	// journal entry ids[i], under reasons[seqs[i]] when present and the
	// entry's own reason otherwise.
	seqs        []uint64
	ids         []int32
	reasons     map[uint64]string
	journal     *cert.SyncJournal[N, L] // dedup index, persisted marks and record contents
	firsts      []int32                 // record index of each distinct assertion's first copy
	buf         []cert.Entry[N, L]      // scratch for materializing records, chunk long
	idBuf       []int32                 // scratch for gathering entry indices, chunk long
	snapshotSeq uint64                  // CoversSeq of the newest snapshot on disk

	snapMu sync.Mutex // serializes snapshot writes and trims
}

// Options configures Open.
type Options struct {
	// Inject, when non-nil, threads deterministic I/O faults (torn
	// writes, fsync failures, short reads) through the store.
	Inject *fault.Injector
}

// Recovered describes a completed certified recovery.
type Recovered[N comparable, L any] struct {
	// UF is the rebuilt concurrent union-find, recording into Journal.
	UF *concurrent.UF[N, L]
	// Journal is the certificate journal holding exactly the recovered
	// assertions; serving layers keep recording into it.
	Journal *cert.SyncJournal[N, L]
	// Entries is the number of distinct assertions recovered.
	Entries int
	// FromSnapshot is how many of them came from the snapshot file.
	FromSnapshot int
	// TailTruncated is the number of torn journal bytes repaired.
	TailTruncated int
	// LastSeq is the journal sequence number appends resume after.
	LastSeq uint64
	// Fence is the highest fencing token the store had accepted.
	Fence uint64
}

// Open opens (creating if needed) a durable store in dir and runs
// certified recovery: snapshot records plus the journal records beyond
// the snapshot's coverage are replayed through the group operations
// into a fresh concurrent union-find, and every replayed assertion is
// re-proved by the independent checker. A torn journal tail is
// truncated and counted; checksum damage anywhere else, a replay
// conflict, a certificate the checker rejects, or a trimmed journal
// whose covering snapshot is missing aborts with a structured error —
// recovery never silently accepts corrupt or shrunken state.
func Open[N comparable, L any](dir string, g group.Group[L], c Codec[N, L], opts Options) (*Store[N, L], *Recovered[N, L], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fault.IOf("store: mkdir %s: %v", dir, err)
	}
	snap, hasSnap, err := readSnapshot(dir, c, opts.Inject)
	if err != nil {
		return nil, nil, err
	}
	log, jres, err := openLogFile(filepath.Join(dir, journalName), c, opts.Inject)
	if err != nil {
		return nil, nil, err
	}
	covers := uint64(0)
	if hasSnap {
		covers = snap.Header.CoversSeq
	}
	if base := jres.Header.CoversSeq; base > covers {
		log.Close()
		return nil, nil, fault.IOf(
			"store %s: journal was trimmed to sequence %d but the snapshot covers only %d — the covering snapshot is missing or stale, so records are gone; restore the snapshot or resync from a replica", dir, base, covers)
	}
	// Journal records are in sequence order; replay only those beyond
	// the snapshot's coverage.
	tail := jres.Records[sort.Search(len(jres.Records), func(i int) bool { return jres.Records[i].Seq > covers }):]
	records := make([]SeqEntry[N, L], 0, len(snap.Records)+len(tail))
	for _, r := range snap.Records {
		records = append(records, SeqEntry[N, L]{Seq: r.Seq, Entry: r.Entry})
	}
	for _, r := range tail {
		records = append(records, SeqEntry[N, L]{Seq: r.Seq, Entry: r.Entry})
	}
	at := func(i int) cert.Entry[N, L] { return records[i].Entry }
	uf, journal, err := rebuild(g, len(records), at)
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("recovery of %s: %w", dir, err)
	}
	s := &Store[N, L]{
		dir:         dir,
		g:           g,
		codec:       c,
		log:         log,
		seqs:        make([]uint64, len(records)),
		ids:         make([]int32, len(records)),
		journal:     journal,
		buf:         make([]cert.Entry[N, L], chunk),
		idBuf:       make([]int32, chunk),
		snapshotSeq: covers,
	}
	// The record list may hold one relation more than once across a
	// failover boundary; the journal holds it once, under the reason of
	// its first record.
	s.firsts = journal.MarkReplayed(len(records), at, s.ids)
	for p, r := range records {
		s.seqs[p] = r.Seq
		if f := s.firsts[s.ids[p]]; int(f) != p && records[f].Entry.Reason != r.Entry.Reason {
			s.setReasonLocked(r.Seq, r.Entry.Reason)
		}
	}
	// Appends must resume above both the journal tail and the snapshot
	// coverage (the journal file may have been truncated below the
	// snapshot by crash repair).
	if log.seq < covers {
		log.seq = covers
		log.durable = covers
	}
	s.seq = log.seq
	s.fence = snap.Fence
	if jres.Fence > s.fence {
		s.fence = jres.Fence
	}
	rec := &Recovered[N, L]{
		UF:            uf,
		Journal:       journal,
		Entries:       len(s.firsts),
		FromSnapshot:  len(snap.Records),
		TailTruncated: jres.TornBytes,
		LastSeq:       s.seq,
		Fence:         s.fence,
	}
	return s, rec, nil
}

// Rebuild replays entries through the group operations into a fresh
// concurrent union-find with an attached certificate journal, then
// re-proves every entry with the independent checker: each assertion
// must be derivable from the journal with exactly its logged label
// (cert.Check accepts the chain) and the rebuilt structure must answer
// it identically. Any divergence — a conflicting record, an unprovable
// record, a wrong structure answer — aborts with a structured error.
func Rebuild[N comparable, L any](g group.Group[L], entries []cert.Entry[N, L]) (*concurrent.UF[N, L], *cert.SyncJournal[N, L], error) {
	return rebuild(g, len(entries), func(i int) cert.Entry[N, L] { return entries[i] })
}

// rebuild is Rebuild over n entries read through at, so recovery
// replays its decoded records without copying them into an entry list.
func rebuild[N comparable, L any](g group.Group[L], n int, at func(i int) cert.Entry[N, L]) (*concurrent.UF[N, L], *cert.SyncJournal[N, L], error) {
	journal := cert.NewSyncJournal[N, L](g)
	uf := concurrent.New[N, L](g, concurrent.WithRecorder[N, L](journal.Record))
	replayOne := func(i int, e cert.Entry[N, L]) (err error) {
		// Corrupt labels can make group arithmetic panic (e.g. Delta's
		// checked overflow); classify instead of crashing recovery.
		defer fault.RecoverTo(&err)
		if !uf.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
			return fault.Invariantf(
				"record %d (%v -> %v) conflicts with the records before it — a journal of accepted assertions can never conflict, so the file is corrupt", i, e.N, e.M)
		}
		return nil
	}
	for i := range n {
		if err := replayOne(i, at(i)); err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
	}
	for i := range n {
		e := at(i)
		c, err := journal.Explain(e.N, e.M)
		if err != nil {
			return nil, nil, fault.Invariantf("certify: record %d (%v -> %v): no derivation: %v", i, e.N, e.M, err)
		}
		c.Label = e.Label
		if err := cert.Check(c, g); err != nil {
			return nil, nil, fault.Invariantf("certify: record %d (%v -> %v): %v", i, e.N, e.M, err)
		}
		ans, ok := uf.GetRelation(e.N, e.M)
		if !ok || !g.Equal(ans, e.Label) {
			return nil, nil, fault.Invariantf(
				"certify: record %d (%v -> %v): rebuilt structure answers %v, journal proves %s",
				i, e.N, e.M, ok, g.Format(e.Label))
		}
	}
	return uf, journal, nil
}

// Append persists one accepted assertion under a freshly allocated
// sequence number and returns that number to pass to Commit. Duplicate
// assertions (same endpoints and label) are not rewritten; the
// returned sequence number still guarantees, once committed, that the
// assertion is durable. The in-memory mirror registers the record, and
// the certificate journal marks the assertion persisted, only after the
// journal write succeeds, so neither claims a record the disk and the
// replicas will not see.
func (s *Store[N, L]) Append(e cert.Entry[N, L]) (uint64, error) {
	// s.mu stays held across the journal write: sequence allocation and
	// the file append must not interleave with a concurrent Trim
	// rewrite. The write is a page-cache copy; fsync concurrency lives
	// in Commit, which this does not serialize.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal.Persisted(e) {
		return s.seq, s.log.Err()
	}
	seq := s.seq + 1
	if err := appendRecordAt(s.log, s.codec, seq, e); err != nil {
		return 0, err
	}
	s.seq = seq
	s.addRecordLocked(seq, e)
	return seq, nil
}

// AppendReplicated persists one record shipped by the primary, keeping
// the primary's sequence number. Records at or below the store's tail
// are idempotent re-deliveries: they are skipped after a divergence
// check (a different assertion at an already-held sequence number
// means the histories split and is refused, never merged). A record
// that would leave a gap is likewise refused — shipping is contiguous
// by construction, so a gap means messages were lost or reordered
// beyond what the protocol tolerates.
func (s *Store[N, L]) AppendReplicated(seq uint64, e cert.Entry[N, L]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.seq {
		if r, ok := s.recordAtLocked(seq); ok {
			if r.Entry.N != e.N || r.Entry.M != e.M || !s.g.Equal(r.Entry.Label, e.Label) || r.Entry.Reason != e.Reason {
				return &DivergenceError{
					Seq:       seq,
					LocalCRC:  RecordCRC(s.codec, r),
					RemoteCRC: RecordCRC(s.codec, SeqEntry[N, L]{Seq: seq, Entry: e}),
					Detail:    "this store holds a different assertion than the one shipped",
				}
			}
		}
		return nil
	}
	if seq != s.seq+1 {
		return fault.Invariantf("replicated record at sequence %d leaves a gap after %d", seq, s.seq)
	}
	if err := appendRecordAt(s.log, s.codec, seq, e); err != nil {
		return err
	}
	s.seq = seq
	s.addRecordLocked(seq, e)
	return nil
}

// addRecordLocked marks a just-written record's assertion persisted in
// the journal and registers the record in the mirror. Callers hold
// s.mu.
func (s *Store[N, L]) addRecordLocked(seq uint64, e cert.Entry[N, L]) {
	idx, fresh, sameReason := s.journal.MarkPersisted(e)
	if fresh {
		s.firsts = append(s.firsts, int32(len(s.seqs)))
	}
	if !sameReason {
		s.setReasonLocked(seq, e.Reason)
	}
	s.seqs = append(s.seqs, seq)
	s.ids = append(s.ids, idx)
}

// setReasonLocked records that the record at seq holds reason rather
// than its journal entry's reason. Callers hold s.mu.
func (s *Store[N, L]) setReasonLocked(seq uint64, reason string) {
	if s.reasons == nil {
		s.reasons = map[uint64]string{}
	}
	s.reasons[seq] = reason
}

// chunk is how many records the store materializes per journal read.
const chunk = 256

// loadLocked materializes the n ≤ chunk records at mirror indices
// i, i+1, … into the scratch buffer and returns them; the buffer is
// reused by the next call. Callers hold s.mu.
func (s *Store[N, L]) loadLocked(i, n int) []cert.Entry[N, L] {
	buf := s.buf[:n]
	s.journal.EntriesAt(buf, s.ids[i:i+n])
	if len(s.reasons) > 0 {
		for k, seq := range s.seqs[i : i+n] {
			if r, ok := s.reasons[seq]; ok {
				buf[k].Reason = r
			}
		}
	}
	return buf
}

// recordsLocked materializes the n records at mirror indices i, i+1, …
// into a fresh slice. Callers hold s.mu.
func (s *Store[N, L]) recordsLocked(i, n int) []SeqEntry[N, L] {
	out := make([]SeqEntry[N, L], n)
	for off := 0; off < n; off += chunk {
		for k, e := range s.loadLocked(i+off, min(chunk, n-off)) {
			out[off+k] = SeqEntry[N, L]{Seq: s.seqs[i+off+k], Entry: e}
		}
	}
	return out
}

// recordAtLocked binary-searches the sequence-ordered record mirror.
// Callers hold s.mu.
func (s *Store[N, L]) recordAtLocked(seq uint64) (SeqEntry[N, L], bool) {
	i := sort.Search(len(s.seqs), func(i int) bool { return s.seqs[i] >= seq })
	if i < len(s.seqs) && s.seqs[i] == seq {
		return SeqEntry[N, L]{Seq: seq, Entry: s.loadLocked(i, 1)[0]}, true
	}
	return SeqEntry[N, L]{}, false
}

// RecordAt returns the record holding sequence number seq, if the
// store has it (replication uses it to compute the prev-record
// checksum of the log-matching check).
func (s *Store[N, L]) RecordAt(seq uint64) (SeqEntry[N, L], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordAtLocked(seq)
}

// RecordsSince returns up to max records with sequence numbers
// strictly above after, in sequence order — the shipping read used by
// both steady-state replication and anti-entropy catch-up. The mirror
// keeps every record regardless of journal trims, so a follower can
// catch up from any point of the history.
func (s *Store[N, L]) RecordsSince(after uint64, max int) []SeqEntry[N, L] {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.seqs), func(i int) bool { return s.seqs[i] > after })
	n := len(s.seqs) - i
	if max > 0 && n > max {
		n = max
	}
	return s.recordsLocked(i, n)
}

// Fence returns the highest fencing token the store has accepted.
func (s *Store[N, L]) Fence() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fence
}

// SetFence durably raises the store's fencing token: the token is
// recorded in memory first (so stale traffic is refused even if the
// disk write then fails), appended to the journal as a fence record
// and fsynced. Tokens at or below the current fence are ignored —
// fences only move forward. A non-nil error means the new fence may
// not survive a restart; promotions must treat that as fatal.
func (s *Store[N, L]) SetFence(token uint64) error {
	s.mu.Lock()
	if token <= s.fence {
		s.mu.Unlock()
		return nil
	}
	s.fence = token
	s.mu.Unlock()
	if err := s.log.appendFence(token); err != nil {
		return err
	}
	return s.log.Sync()
}

// Commit blocks until sequence number seq is durable (group-commit
// fsync batching with concurrent callers).
func (s *Store[N, L]) Commit(seq uint64) error { return s.log.Commit(seq) }

// Sync makes every appended record durable.
func (s *Store[N, L]) Sync() error { return s.log.Sync() }

// Err returns the journal's sticky I/O error, or nil while healthy.
func (s *Store[N, L]) Err() error { return s.log.Err() }

// Len returns the number of distinct persisted assertions.
func (s *Store[N, L]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.firsts)
}

// LastSeq returns the last allocated journal sequence number.
func (s *Store[N, L]) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// DurableSeq returns the last sequence number known fsynced.
func (s *Store[N, L]) DurableSeq() uint64 {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.log.durable
}

// SnapshotSeq returns the CoversSeq of the newest snapshot on disk.
func (s *Store[N, L]) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotSeq
}

// JournalSize returns the live journal's size in bytes.
func (s *Store[N, L]) JournalSize() int64 { return s.log.Size() }

// Codec returns the codec the store serializes with (replication uses
// it to frame shipped records exactly as the journal stores them).
func (s *Store[N, L]) Codec() Codec[N, L] { return s.codec }

// Entries returns a copy of the distinct persisted assertions in
// sequence order, each as its first persisted record holds it.
func (s *Store[N, L]) Entries() []cert.Entry[N, L] {
	out := make([]cert.Entry[N, L], s.Len())
	return out[:s.ReadEntries(out, 0)]
}

// ReadEntries copies the distinct persisted assertions at positions
// from, from+1, … of the Entries order into dst and returns how many it
// copied (fewer than len(dst) at the end of the list). Positions are
// stable — the list only grows — so callers page through it, or sample
// a window of it, without copying the whole list.
func (s *Store[N, L]) ReadEntries(dst []cert.Entry[N, L], from int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 || from >= len(s.firsts) {
		return 0
	}
	n := min(len(dst), len(s.firsts)-from)
	for off := 0; off < n; off += chunk {
		firsts := s.firsts[from+off : from+min(off+chunk, n)]
		ids := s.idBuf[:len(firsts)]
		for k, p := range firsts {
			ids[k] = s.ids[p]
		}
		out := dst[off : off+len(firsts)]
		s.journal.EntriesAt(out, ids)
		if len(s.reasons) > 0 {
			for k, p := range firsts {
				if r, ok := s.reasons[s.seqs[p]]; ok {
					out[k].Reason = r
				}
			}
		}
	}
	return n
}

// Snapshot writes a snapshot covering every assertion appended so far
// and records its coverage; after it returns, recovery replays only
// journal records beyond the snapshot. Concurrent appends proceed —
// an assertion racing the snapshot lands in the journal suffix (and
// possibly, harmlessly, in both files; replay deduplicates by
// sequence number).
func (s *Store[N, L]) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	recs := s.recordsLocked(0, len(s.seqs))
	covers := s.seq
	fence := s.fence
	s.mu.Unlock()
	if err := writeSnapshot(s.dir, s.codec, recs, covers, fence); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapshotSeq = covers
	s.mu.Unlock()
	return nil
}

// Trim atomically rewrites the journal down to the records the newest
// snapshot does not cover: the new file's header carries the trim base
// (the snapshot's CoversSeq) and the current fence, followed by the
// suffix records. Recovery refuses a trimmed journal without a
// snapshot covering its base, so a lost snapshot turns into a
// structured error, never a silently shrunken state. The in-memory
// record mirror is not trimmed — shipping can still serve any suffix
// of the history. A store with no snapshot has nothing to trim.
func (s *Store[N, L]) Trim() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// s.mu stays held across the rewrite: appends must not land in the
	// old file while the new image replaces it.
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.snapshotSeq
	if base == 0 {
		return nil
	}
	image := appendFrame(nil, encodeHeader(s.codec.GroupID(), base, s.fence))
	i := sort.Search(len(s.seqs), func(i int) bool { return s.seqs[i] > base })
	for ; i < len(s.seqs); i += chunk {
		n := min(chunk, len(s.seqs)-i)
		for k, e := range s.loadLocked(i, n) {
			image = appendAssertFrame(image, s.codec, s.seqs[i+k], e)
		}
	}
	return s.log.Rewrite(image, s.seq)
}

// Close syncs and closes the journal.
func (s *Store[N, L]) Close() error { return s.log.Close() }
