package wal

import (
	"sort"
	"sync"

	"luf/internal/fault"
)

// MigrationLog is the rebalancing coordinator's durable migration log:
// a framed journal (same format and crash semantics as the assert and
// intent journals) holding class-ownership migration records.
//
// Protocol discipline, enforced here so the coordinator cannot get it
// wrong:
//
//   - Begin fsyncs a Planned record before the coordinator may reserve
//     a freeze window — the plan is on disk before any shard hears
//     about it.
//   - Advance and Progress fsync the frozen/copying/verifying
//     transitions; a crash at any of them presumes abort on recovery
//     (ownership has not moved, the source owner's freeze TTL-lapses).
//   - Flip fsyncs the Flipped decision record carrying the new map
//     epoch and the class's member nodes; ownership moves exactly when
//     this returns. A crash after it redrives completion: recovery
//     rebuilds the override table from Flipped records alone, without
//     consulting any shard.
//   - MarkDone records (fsynced) that the source owner installed its
//     stale-write fence and released the freeze. Losing a Done record
//     is harmless: redriving completion is idempotent.
//
// Opening the log bumps its fencing epoch exactly like the intent log,
// so a restarted coordinator's records are distinguishable from a
// predecessor's. A MigrationLog is safe for concurrent use and fails
// sticky like Log.
type MigrationLog[N comparable, L any] struct {
	log   *Log
	codec Codec[N, L]

	mu         sync.Mutex
	epoch      uint64
	nextID     uint64
	migrations map[uint64]MigrationRecord[N]
}

// OpenMigrationLog opens (creating if missing) the migration log at
// path, repairs any torn tail, folds the surviving records into
// per-migration final states, and bumps the fencing epoch durably.
// Mid-file corruption aborts with a structured error; a torn final
// frame is truncated — a torn Planned is a migration that never
// existed, a torn Flipped leaves the migration pre-decision and
// therefore presumed aborted.
func OpenMigrationLog[N comparable, L any](path string, c Codec[N, L], inj *fault.Injector) (*MigrationLog[N, L], error) {
	l, res, err := openLogFile(path, c, inj)
	if err != nil {
		return nil, err
	}
	ml := &MigrationLog[N, L]{log: l, codec: c, migrations: map[uint64]MigrationRecord[N]{}}
	for _, r := range res.Migrations {
		if err := ml.fold(r); err != nil {
			l.f.Close()
			return nil, fault.IOf("migration log %s: %v", path, err)
		}
		if r.ID > ml.nextID {
			ml.nextID = r.ID
		}
	}
	ml.epoch = res.Fence + 1
	if err := l.appendFence(ml.epoch); err != nil {
		l.f.Close()
		return nil, err
	}
	if err := l.Sync(); err != nil {
		l.f.Close()
		return nil, err
	}
	return ml, nil
}

// migrationPredecessors lists, per state, the folded states a record
// may legally follow (same-state repeats are tolerated everywhere: a
// crash between append and ack can duplicate any transition).
var migrationPredecessors = map[MigrationState][]MigrationState{
	MigrationFrozen:    {MigrationPlanned, MigrationFrozen},
	MigrationCopying:   {MigrationFrozen, MigrationCopying},
	MigrationVerifying: {MigrationFrozen, MigrationCopying, MigrationVerifying},
	MigrationFlipped:   {MigrationVerifying, MigrationFlipped},
	MigrationDone:      {MigrationFlipped, MigrationDone},
	MigrationAborted:   {MigrationPlanned, MigrationFrozen, MigrationCopying, MigrationVerifying, MigrationAborted},
}

// fold applies one file-order record to the in-memory state, enforcing
// the forward-only lifecycle. Callers hold mu (or run before the log is
// shared).
func (ml *MigrationLog[N, L]) fold(r MigrationRecord[N]) error {
	cur, ok := ml.migrations[r.ID]
	if r.State == MigrationPlanned {
		if ok {
			return fault.Invariantf("duplicate planned record for migration %d", r.ID)
		}
		ml.migrations[r.ID] = r
		return nil
	}
	allowed, known := migrationPredecessors[r.State]
	if !known {
		return fault.Invariantf("unknown migration state %d", r.State)
	}
	if !ok {
		return fault.Invariantf("%v record for unknown migration %d", r.State, r.ID)
	}
	legal := false
	for _, s := range allowed {
		if cur.State == s {
			legal = true
			break
		}
	}
	if !legal {
		return fault.Invariantf("%v record for migration %d in state %v", r.State, r.ID, cur.State)
	}
	cur.State = r.State
	switch r.State {
	case MigrationCopying:
		if r.Copied > cur.Copied {
			cur.Copied = r.Copied
		}
	case MigrationFlipped:
		if len(r.Nodes) > 0 {
			cur.Nodes = r.Nodes
		}
		if r.MapEpoch > cur.MapEpoch {
			cur.MapEpoch = r.MapEpoch
		}
	}
	ml.migrations[r.ID] = cur
	return nil
}

// appendDurable appends one migration frame and fsyncs it.
func (ml *MigrationLog[N, L]) appendDurable(r MigrationRecord[N]) error {
	return ml.log.appendDurable(appendFrame(nil, encodeMigration(ml.codec, r)), "append migration")
}

// Epoch returns the fencing epoch this open established.
func (ml *MigrationLog[N, L]) Epoch() uint64 {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.epoch
}

// Err returns the underlying log's sticky I/O error, or nil.
func (ml *MigrationLog[N, L]) Err() error { return ml.log.Err() }

// Begin durably records a new Planned migration of class (any member
// node) from group from to group to and returns its migration ID.
func (ml *MigrationLog[N, L]) Begin(class N, from, to, reason string) (uint64, error) {
	ml.mu.Lock()
	ml.nextID++
	r := MigrationRecord[N]{
		ID: ml.nextID, Epoch: ml.epoch, State: MigrationPlanned,
		Class: class, From: from, To: to, Reason: reason,
	}
	ml.mu.Unlock()
	if err := ml.appendDurable(r); err != nil {
		return 0, err
	}
	ml.mu.Lock()
	ml.migrations[r.ID] = r
	ml.mu.Unlock()
	return r.ID, nil
}

// transition validates and durably records a bare state transition.
func (ml *MigrationLog[N, L]) transition(id uint64, state MigrationState, rec MigrationRecord[N]) error {
	ml.mu.Lock()
	cur, ok := ml.migrations[id]
	if !ok {
		ml.mu.Unlock()
		return fault.Invariantf("%v unknown migration %d", state, id)
	}
	if cur.State == state && state != MigrationCopying {
		ml.mu.Unlock()
		return nil
	}
	legal := false
	for _, s := range migrationPredecessors[state] {
		if cur.State == s {
			legal = true
			break
		}
	}
	if !legal {
		ml.mu.Unlock()
		return fault.Invariantf("migration %d: cannot move %v → %v", id, cur.State, state)
	}
	rec.ID, rec.Epoch, rec.State = id, ml.epoch, state
	ml.mu.Unlock()
	if err := ml.appendDurable(rec); err != nil {
		return err
	}
	ml.mu.Lock()
	if err := ml.fold(rec); err != nil {
		ml.mu.Unlock()
		return err
	}
	ml.mu.Unlock()
	return nil
}

// Advance durably records a bare forward transition (Frozen or
// Verifying). Re-recording the current state is a no-op; moving
// backward or skipping the decision is an invariant violation.
func (ml *MigrationLog[N, L]) Advance(id uint64, state MigrationState) error {
	if state != MigrationFrozen && state != MigrationVerifying {
		return fault.Invariantf("advance migration %d: %v is not a bare transition", id, state)
	}
	return ml.transition(id, state, MigrationRecord[N]{})
}

// Progress durably records a Copying watermark: copied journal-slice
// entries adopted (re-proved) by the destination so far.
func (ml *MigrationLog[N, L]) Progress(id, copied uint64) error {
	return ml.transition(id, MigrationCopying, MigrationRecord[N]{Copied: copied})
}

// Flip durably records the ownership decision: the class's member
// nodes now route to the destination group under the given map epoch.
// When Flip returns the migration is decided; a crash afterwards
// redrives completion, never abort.
func (ml *MigrationLog[N, L]) Flip(id, mapEpoch uint64, nodes []N) error {
	return ml.transition(id, MigrationFlipped, MigrationRecord[N]{MapEpoch: mapEpoch, Nodes: nodes})
}

// Abort durably records the abort decision for a pre-flip migration.
// Aborting an already-aborted migration is a no-op; aborting a flipped
// or done migration is an invariant violation (the decision stands).
func (ml *MigrationLog[N, L]) Abort(id uint64) error {
	return ml.transition(id, MigrationAborted, MigrationRecord[N]{})
}

// MarkDone durably records that the flipped migration's cleanup — the
// source owner's stale-write fence and freeze release — completed.
func (ml *MigrationLog[N, L]) MarkDone(id uint64) error {
	return ml.transition(id, MigrationDone, MigrationRecord[N]{})
}

// Get returns the folded state of migration id.
func (ml *MigrationLog[N, L]) Get(id uint64) (MigrationRecord[N], bool) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	r, ok := ml.migrations[id]
	return r, ok
}

// Migrations returns the folded migrations sorted by ID — what recovery
// walks to presume-abort undecided migrations and redrive flipped ones.
func (ml *MigrationLog[N, L]) Migrations() []MigrationRecord[N] {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	out := make([]MigrationRecord[N], 0, len(ml.migrations))
	for _, r := range ml.migrations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close syncs and closes the underlying log file.
func (ml *MigrationLog[N, L]) Close() error { return ml.log.Close() }
