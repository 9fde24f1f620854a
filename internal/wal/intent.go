package wal

import (
	"sort"
	"sync"

	"luf/internal/fault"
)

// IntentLog is the cross-shard union coordinator's durable two-phase
// log: a framed journal (same format and crash semantics as the assert
// journal) holding intent records instead of assertions.
//
// Protocol discipline, enforced here so the coordinator cannot get it
// wrong:
//
//   - Begin fsyncs a Pending record before the coordinator may send a
//     single prepare — the intent is on disk before any participant
//     hears about it.
//   - Decide fsyncs the Committed or Aborted decision record; a commit
//     is a commit only once this returns. A crash before it is a
//     presumed abort: recovery folds the file and reports every still-
//     Pending intent for rollback.
//   - MarkDone records (fsynced) that both bridge edges are applied, so
//     recovery stops re-driving the intent. Losing a Done record is
//     harmless: re-driving an applied bridge edge is an idempotent
//     assert.
//
// Opening the log bumps the coordinator fencing epoch: the highest
// fence token in the file plus one is appended as a new fence record
// and fsynced before Open returns, so every restart is a new epoch and
// participants can reject a predecessor ("stale coordinator") by
// comparing epochs.
//
// An IntentLog is safe for concurrent use. Like Log it fails sticky:
// after the first I/O error every mutation reports the same structured
// fault.ErrIO error and the coordinator degrades to refusing new
// cross-shard unions.
type IntentLog[N comparable, L any] struct {
	log   *Log
	codec Codec[N, L]

	mu      sync.Mutex
	epoch   uint64
	nextID  uint64
	intents map[uint64]IntentRecord[N, L]
}

// OpenIntentLog opens (creating if missing) the intent log at path,
// repairs any torn tail, folds the surviving records into per-intent
// final states, and bumps the fencing epoch durably. Mid-file
// corruption aborts with a structured error; a torn final frame is
// truncated exactly as the assert journal does it — a torn Pending is
// an intent that never existed, a torn decision leaves the intent
// Pending and therefore presumed aborted.
func OpenIntentLog[N comparable, L any](path string, c Codec[N, L], inj *fault.Injector) (*IntentLog[N, L], error) {
	l, res, err := openLogFile(path, c, inj)
	if err != nil {
		return nil, err
	}
	il := &IntentLog[N, L]{log: l, codec: c, intents: map[uint64]IntentRecord[N, L]{}}
	for _, r := range res.Intents {
		if err := il.fold(r); err != nil {
			l.f.Close()
			return nil, fault.IOf("intent log %s: %v", path, err)
		}
		if r.ID > il.nextID {
			il.nextID = r.ID
		}
	}
	il.epoch = res.Fence + 1
	if err := l.appendFence(il.epoch); err != nil {
		l.f.Close()
		return nil, err
	}
	if err := l.Sync(); err != nil {
		l.f.Close()
		return nil, err
	}
	return il, nil
}

// fold applies one file-order record to the in-memory state, enforcing
// the forward-only lifecycle. Callers hold mu (or run before the log is
// shared).
func (il *IntentLog[N, L]) fold(r IntentRecord[N, L]) error {
	cur, ok := il.intents[r.ID]
	switch r.State {
	case IntentPending:
		if ok {
			return fault.Invariantf("duplicate pending record for intent %d", r.ID)
		}
		il.intents[r.ID] = r
		return nil
	case IntentCommitted:
		if !ok || (cur.State != IntentPending && cur.State != IntentCommitted) {
			return fault.Invariantf("commit record for intent %d in state %v", r.ID, cur.State)
		}
	case IntentAborted:
		if !ok || (cur.State != IntentPending && cur.State != IntentAborted) {
			return fault.Invariantf("abort record for intent %d in state %v", r.ID, cur.State)
		}
	case IntentDone:
		if !ok || (cur.State != IntentCommitted && cur.State != IntentDone) {
			return fault.Invariantf("done record for intent %d in state %v", r.ID, cur.State)
		}
	default:
		return fault.Invariantf("unknown intent state %d", r.State)
	}
	cur.State = r.State
	il.intents[r.ID] = cur
	return nil
}

// appendDurable appends one intent frame and fsyncs it.
func (il *IntentLog[N, L]) appendDurable(r IntentRecord[N, L]) error {
	return il.log.appendDurable(appendFrame(nil, encodeIntent(il.codec, r)), "append intent")
}

// Epoch returns the coordinator fencing epoch this open established.
func (il *IntentLog[N, L]) Epoch() uint64 {
	il.mu.Lock()
	defer il.mu.Unlock()
	return il.epoch
}

// Err returns the underlying log's sticky I/O error, or nil.
func (il *IntentLog[N, L]) Err() error { return il.log.Err() }

// Begin durably records a new Pending intent for the cross-shard union
// n --label--> m between groupA and groupB and returns its intent ID.
// When Begin returns, the intent is fsynced; a crash at any later point
// is recoverable.
func (il *IntentLog[N, L]) Begin(groupA, groupB string, n, m N, label L, reason string) (uint64, error) {
	il.mu.Lock()
	il.nextID++
	r := IntentRecord[N, L]{
		ID: il.nextID, Epoch: il.epoch, State: IntentPending,
		GroupA: groupA, GroupB: groupB, N: n, M: m, Label: label, Reason: reason,
	}
	il.mu.Unlock()
	if err := il.appendDurable(r); err != nil {
		return 0, err
	}
	il.mu.Lock()
	il.intents[r.ID] = r
	il.mu.Unlock()
	return r.ID, nil
}

// Decide durably records the commit or abort decision for intent id.
// Deciding an already-decided intent to the same state is a no-op;
// contradicting a prior decision is an invariant violation.
func (il *IntentLog[N, L]) Decide(id uint64, state IntentState) error {
	if state != IntentCommitted && state != IntentAborted {
		return fault.Invariantf("decide intent %d: %v is not a decision", id, state)
	}
	return il.transition(id, state, IntentPending)
}

// MarkDone durably records that intent id's bridge edges are applied on
// both shards. Only committed intents can be marked done; marking an
// already-done intent is a no-op.
func (il *IntentLog[N, L]) MarkDone(id uint64) error {
	return il.transition(id, IntentDone, IntentCommitted)
}

// transition durably moves intent id from state from to state to; an
// intent already in state to is left alone.
func (il *IntentLog[N, L]) transition(id uint64, to, from IntentState) error {
	il.mu.Lock()
	cur, ok := il.intents[id]
	epoch := il.epoch
	il.mu.Unlock()
	switch {
	case !ok:
		return fault.Invariantf("%v record for unknown intent %d", to, id)
	case cur.State == to:
		return nil
	case cur.State != from:
		return fault.Invariantf("%v record for intent %d in state %v, want %v", to, id, cur.State, from)
	}
	if err := il.appendDurable(IntentRecord[N, L]{ID: id, Epoch: epoch, State: to}); err != nil {
		return err
	}
	il.mu.Lock()
	cur = il.intents[id]
	cur.State = to
	il.intents[id] = cur
	il.mu.Unlock()
	return nil
}

// Get returns the folded state of intent id.
func (il *IntentLog[N, L]) Get(id uint64) (IntentRecord[N, L], bool) {
	il.mu.Lock()
	defer il.mu.Unlock()
	r, ok := il.intents[id]
	return r, ok
}

// Intents returns the folded intents sorted by ID — what recovery walks
// to presume-abort pending intents and re-drive committed ones.
func (il *IntentLog[N, L]) Intents() []IntentRecord[N, L] {
	il.mu.Lock()
	defer il.mu.Unlock()
	out := make([]IntentRecord[N, L], 0, len(il.intents))
	for _, r := range il.intents {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close syncs and closes the underlying log file.
func (il *IntentLog[N, L]) Close() error { return il.log.Close() }
