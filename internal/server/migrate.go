package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"strings"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
)

// Migration participant support: a shard-group primary serves as the
// *source* of a class-ownership migration (freeze window, certified
// journal-slice streaming, post-flip stale-write fencing) and as the
// *destination* (the copy stream arrives through the normal assert
// path with a migration-tagged reason, so every adopted record is
// re-proved exactly like any other write — trust is re-derived, never
// copied).
//
// Pre-decision, the source never blocks on the coordinator: a freeze
// window whose TTL lapses re-probes the coordinator's
// /v1/rebalance/status with backoff and presumes abort (thaws) when
// the coordinator stays unreachable or has forgotten the migration.
// Once a probe observes the flip the decision is durable, and the
// source must not unilaterally thaw: it installs a provisional
// moved-fence from the probe's flip material (or holds the window and
// keeps probing until the redriven complete lands). The post-flip fence is
// durable: completing a migration journals a marker entry between two
// synthetic namespaced nodes whose reason carries the moved node list,
// so a restarted source re-fences stale writers from its own journal
// (the same recovered-from-durable-history discipline as the 2PC
// epoch).

// Migration-tag plumbing shared by the coordinator, the participant
// gate and the copy-stream reasons certificates carry.
const (
	// MigrateTagPrefix opens every copy-stream reason: the migration id
	// and coordinator epoch ride inside the reason, so the destination's
	// journal itself records which migration adopted each record.
	MigrateTagPrefix = "xmigrate#"
	// MovedMarkerPrefix opens the reason of the durable post-flip fence
	// marker the source journals on completion.
	MovedMarkerPrefix = "xmigrate-moved "
	// MovedMarkerNode is the synthetic node-name prefix the fence marker
	// entries relate; it namespaces them away from client classes.
	MovedMarkerNode = "xmigrate:moved:"
	// LiftMarkerPrefix opens the reason of the durable fence-lift marker
	// a destination journals when a copy-stream assert lifts a moved
	// fence (the class is migrating back here). The copy entry itself is
	// usually a redundant re-assert the wal dedups away, so the lift
	// needs its own journal trace or a restart would re-fence the class.
	LiftMarkerPrefix = "xmigrate-lifted "
	// LiftMarkerNode is the synthetic node-name prefix lift marker
	// entries relate.
	LiftMarkerNode = "xmigrate:lift:"
	// FreezePath is the source owner's freeze-window endpoint.
	FreezePath = "/v1/migrate/freeze"
	// ReleasePath is the source owner's thaw endpoint (also the operator
	// escape hatch for a freeze stuck behind a dead coordinator).
	ReleasePath = "/v1/migrate/release"
	// CompletePath is the source owner's post-flip endpoint: install the
	// durable stale-write fence and release the freeze.
	CompletePath = "/v1/migrate/complete"
	// SlicePath is the source owner's certified journal-slice endpoint.
	SlicePath = "/v1/migrate/slice"
	// MigrateStatusPath is the coordinator's migration-status endpoint
	// participants re-probe after a freeze TTL lapses.
	MigrateStatusPath = "/v1/rebalance/status"
)

// FormatMigrateTag renders the copy-stream reason tag for migration id
// under the given coordinator epoch.
func FormatMigrateTag(id, epoch uint64) string {
	return fmt.Sprintf("%s%d@e%d", MigrateTagPrefix, id, epoch)
}

// ParseMigrateTag extracts the migration id and coordinator epoch from
// a reason string starting with a migration tag; ok is false for
// untagged reasons.
func ParseMigrateTag(reason string) (id, epoch uint64, ok bool) {
	if !strings.HasPrefix(reason, MigrateTagPrefix) {
		return 0, 0, false
	}
	rest := reason[len(MigrateTagPrefix):]
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	var n int
	if n, _ = fmt.Sscanf(rest, "%d@e%d", &id, &epoch); n != 2 {
		return 0, 0, false
	}
	return id, epoch, true
}

// movedMarker is the JSON body of a durable post-flip fence marker's
// reason (after MovedMarkerPrefix).
type movedMarker struct {
	Migration uint64   `json:"migration"`
	Epoch     uint64   `json:"epoch"`
	MapEpoch  uint64   `json:"map_epoch"`
	To        string   `json:"to"`
	Nodes     []string `json:"nodes"`
}

// MigratedError is the structured refusal for a write addressing a
// node whose class ownership migrated away: a 403 fence carrying the
// new owner group and the map epoch that moved it, so a stale client
// can re-route instead of retrying blindly.
type MigratedError struct {
	// Node is the refused endpoint.
	Node string
	// Group names the new owner shard group.
	Group string
	// MapEpoch is the shard-map epoch of the flip that moved the class.
	MapEpoch uint64
}

// Error renders the refusal.
func (e *MigratedError) Error() string {
	return fmt.Sprintf("node %q migrated to shard group %q at map epoch %d; refresh the shard map", e.Node, e.Group, e.MapEpoch)
}

// Unwrap classifies the refusal as a fencing fault (HTTP 403).
func (e *MigratedError) Unwrap() error { return fault.ErrFenced }

// migFreeze is one held freeze window on a source owner.
type migFreeze struct {
	req     MigrateFreezeRequest
	expires time.Time
}

// liftMarker is the JSON body of a durable fence-lift marker's reason
// (after LiftMarkerPrefix).
type liftMarker struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch"`
	Node      string `json:"node"`
}

// migMoved records where a migrated node's class went.
type migMoved struct {
	group    string
	mapEpoch uint64
	// durable reports the fence is backed by a journaled marker entry.
	// A provisional fence installed from a flipped status probe is not:
	// the redriven complete must still journal its marker, or a restart
	// would forget the fence.
	durable bool
}

// MigrateFreezeRequest is the /v1/migrate/freeze body: the coordinator
// reserves a freeze window for the class of the given representative.
type MigrateFreezeRequest struct {
	// Migration is the coordinator's durable migration sequence number.
	Migration uint64 `json:"migration"`
	// Epoch is the coordinator's migration fencing epoch; participants
	// reject freezes from epochs below the highest they have seen.
	Epoch uint64 `json:"epoch"`
	// Coordinator is the coordinator's base URL, re-probed when the
	// freeze TTL lapses.
	Coordinator string `json:"coordinator"`
	// Class is the migrating class's representative node.
	Class string `json:"class"`
	// TTLMillis bounds the freeze before the participant starts
	// re-probing the coordinator; <= 0 means 1000.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// MigrateFreezeResponse is the /v1/migrate/freeze success body.
type MigrateFreezeResponse struct {
	OK bool `json:"ok"`
}

// MigrateReleaseRequest is the /v1/migrate/release body.
type MigrateReleaseRequest struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

// MigrateReleaseResponse is the /v1/migrate/release success body.
type MigrateReleaseResponse struct {
	OK bool `json:"ok"`
	// Released reports whether a freeze was actually held.
	Released bool `json:"released"`
}

// MigrateCompleteRequest is the /v1/migrate/complete body: the flip is
// durable on the coordinator; install the stale-write fence for the
// moved nodes and release the freeze.
type MigrateCompleteRequest struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch"`
	// MapEpoch is the shard-map epoch the flip established.
	MapEpoch uint64 `json:"map_epoch"`
	// To names the new owner group.
	To string `json:"to"`
	// Nodes are the moved class members to fence.
	Nodes []string `json:"nodes"`
}

// MigrateCompleteResponse is the /v1/migrate/complete success body.
type MigrateCompleteResponse struct {
	OK bool `json:"ok"`
	// Durable reports whether the fence marker was journaled (false on
	// in-memory servers, whose fences do not survive a restart).
	Durable bool `json:"durable"`
}

// MigrateSliceResponse is the /v1/migrate/slice success body: one
// window of the class's certified journal slice, in journal order,
// plus the full member-node list and a transport checksum.
type MigrateSliceResponse struct {
	// Entries is the window of journal entries whose endpoints are in
	// the class (journal order; re-asserted verbatim on the destination,
	// which re-proves each one).
	Entries []AssertRequest `json:"entries"`
	// Nodes is the class's full member list.
	Nodes []string `json:"nodes"`
	// Total is the slice's total entry count (for cursor termination).
	Total int `json:"total"`
	// CRC is the Castagnoli checksum of the window (SliceChecksum), so
	// a transport-corrupted window is detected before any re-prove work.
	CRC uint32 `json:"crc"`
}

// MigrationStatusResponse is the coordinator's /v1/rebalance/status
// body: the folded state of one migration. Unknown migrations report
// "aborted" — the coordinator's log is never trimmed, so an id it has
// no record of was never durably begun and is presumed aborted.
type MigrationStatusResponse struct {
	Migration uint64 `json:"migration"`
	State     string `json:"state"`
	Epoch     uint64 `json:"epoch"`
	// To, MapEpoch and Nodes carry the flip decision for "flipped"
	// migrations: the new owner group, the map epoch that moved the
	// class, and the moved member list. A probing source uses them to
	// install a provisional moved-fence and thaw instead of holding its
	// freeze window for as long as the completion takes to redrive.
	To       string   `json:"to,omitempty"`
	MapEpoch uint64   `json:"map_epoch,omitempty"`
	Nodes    []string `json:"nodes,omitempty"`
}

// MigrationStats is the participant-side migration counter block in
// /v1/stats.
type MigrationStats struct {
	// Frozen is the number of freeze windows currently held.
	Frozen int `json:"frozen"`
	// Migrated is the number of nodes fenced as moved away.
	Migrated int `json:"migrated"`
	// Stalled counts client writes 503-stalled by a freeze window.
	Stalled int64 `json:"stalled"`
	// Fenced counts stale-map writes 403-refused post-flip plus
	// stale-epoch migration traffic rejected.
	Fenced int64 `json:"fenced"`
	// Expired counts freezes dropped after probing presumed abort.
	Expired int64 `json:"expired"`
	// MaxEpoch is the highest migration-coordinator epoch seen.
	MaxEpoch uint64 `json:"max_epoch,omitempty"`
}

// sliceCastagnoli is the CRC-32C table for slice transport checksums.
var sliceCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// SliceChecksum is the transport checksum both ends of a journal-slice
// transfer compute over a window of entries: CRC-32C over each field
// length-prefixed, so field boundaries cannot alias. It guards the
// transfer only — the destination's re-prove of every record remains
// the integrity mechanism that matters.
func SliceChecksum(entries []AssertRequest) uint32 {
	h := crc32.New(sliceCastagnoli)
	var lenBuf [binary.MaxVarintLen64]byte
	field := func(s string) {
		n := binary.PutUvarint(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:n])
		h.Write([]byte(s))
	}
	for _, e := range entries {
		field(e.N)
		field(e.M)
		n := binary.PutVarint(lenBuf[:], e.Label)
		h.Write(lenBuf[:n])
		field(e.Reason)
	}
	return h.Sum32()
}

// restoreMigrationFences rebuilds the post-flip stale-write fences
// from durable history: every completed migration journaled a marker
// entry whose reason carries the moved node list, so a restarted
// source refuses stale writers without remembering anything in memory.
// The replay runs in journal order and applies the same two rules as
// the live gate — a moved marker installs fences for its node list,
// and a current-epoch migrate-tagged copy entry lifts the fence on its
// endpoints (ownership arriving here). Without the lift rule a class
// that migrated away and later back would re-install the outbound
// fence on restart and 403 writes to a class this node owns again.
func (s *Server) restoreMigrationFences(entries []cert.Entry[string, int64]) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	for _, e := range entries {
		if _, epoch, ok := ParseMigrateTag(e.Reason); ok {
			if epoch >= s.migEpoch {
				if epoch > s.migEpoch {
					s.migEpoch = epoch
				}
				delete(s.migMoved, e.N)
				delete(s.migMoved, e.M)
			}
			continue
		}
		if strings.HasPrefix(e.Reason, LiftMarkerPrefix) {
			// A copy-stream assert lifted this fence live; the entry that
			// caused it was deduped (the class migrated back over relations
			// this journal already held), so the lift replays from its own
			// marker.
			var lm liftMarker
			if err := json.Unmarshal([]byte(e.Reason[len(LiftMarkerPrefix):]), &lm); err == nil {
				if lm.Epoch > s.migEpoch {
					s.migEpoch = lm.Epoch
				}
				delete(s.migMoved, lm.Node)
			}
			continue
		}
		if !strings.HasPrefix(e.Reason, MovedMarkerPrefix) {
			continue
		}
		var m movedMarker
		if err := json.Unmarshal([]byte(e.Reason[len(MovedMarkerPrefix):]), &m); err != nil {
			continue
		}
		if m.Epoch > s.migEpoch {
			s.migEpoch = m.Epoch
		}
		for _, n := range m.Nodes {
			if cur, ok := s.migMoved[n]; !ok || m.MapEpoch > cur.mapEpoch {
				s.migMoved[n] = migMoved{group: m.To, mapEpoch: m.MapEpoch, durable: true}
			}
		}
	}
}

// blockedByMigration is the write-path migration gate, checked right
// after the 2PC gate. Copy-stream traffic (reasons carrying a
// migration tag) passes whenever its epoch is current — and lifts any
// stale moved-fence on its endpoints, since current-epoch migration
// traffic means ownership is arriving here — and is fenced with 403
// when stale. Ordinary client writes are refused with 403 + new-owner
// hint when an endpoint's class migrated away, and with a retryable
// 503 while an endpoint's class is inside a freeze window; writes to
// unrelated classes pass untouched. The returned list names the nodes
// whose fences this call lifted: the caller must make those lifts
// durable with journalFenceLifts, because the copy entry that caused
// them is usually a redundant re-assert the wal dedups away.
func (s *Server) blockedByMigration(n, m, reason string) ([]string, error) {
	id, epoch, tagged := ParseMigrateTag(reason)
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if tagged {
		if epoch < s.migEpoch {
			s.migFencedN++
			return nil, fault.Fencedf("copy-stream assert for migration %d carries stale coordinator epoch %d (current %d)", id, epoch, s.migEpoch)
		}
		s.migEpoch = epoch
		var lifted []string
		for _, x := range [2]string{n, m} {
			if _, ok := s.migMoved[x]; ok {
				lifted = append(lifted, x)
				delete(s.migMoved, x)
			}
		}
		return lifted, nil
	}
	for _, x := range [2]string{n, m} {
		if mv, ok := s.migMoved[x]; ok {
			s.migFencedN++
			return nil, &MigratedError{Node: x, Group: mv.group, MapEpoch: mv.mapEpoch}
		}
	}
	if len(s.migFrozen) == 0 {
		return nil, nil
	}
	uf := s.st().uf
	for id, fr := range s.migFrozen {
		for _, x := range [2]string{n, m} {
			if x == fr.req.Class {
				s.migStalled++
				return nil, fault.Unavailablef("class of %q is migrating (migration %d); retry shortly", x, id)
			}
			if _, ok := uf.GetRelation(fr.req.Class, x); ok {
				s.migStalled++
				return nil, fault.Unavailablef("class of %q is migrating (migration %d); retry shortly", x, id)
			}
		}
	}
	return nil, nil
}

// journalFenceLifts makes a live fence lift durable: one marker entry
// per lifted node, its synthetic node name keyed by migration, epoch
// and node so the wal's idempotent dedup cannot swallow a later
// migration's lift of the same node. Restore replays these in journal
// order against the moved markers, so a class that migrated away and
// back survives a restart writable.
func (s *Server) journalFenceLifts(ctx context.Context, reason string, nodes []string) error {
	st := s.st()
	if st.store == nil || len(nodes) == 0 {
		return nil
	}
	id, epoch, ok := ParseMigrateTag(reason)
	if !ok {
		return fault.Invariantf("fence lift from an untagged reason %q", reason)
	}
	for _, n := range nodes {
		body, err := json.Marshal(liftMarker{Migration: id, Epoch: epoch, Node: n})
		if err != nil {
			return fault.Invalidf("encode fence-lift marker: %v", err)
		}
		rsn := LiftMarkerPrefix + string(body)
		mn := fmt.Sprintf("%s%d@e%d:%s", LiftMarkerNode, id, epoch, n)
		if !st.uf.AddRelationReason(mn, mn+":b", 0, rsn) {
			continue
		}
		seq, err := s.persist(cert.Entry[string, int64]{N: mn, M: mn + ":b", Label: 0, Reason: rsn})
		if err != nil {
			return err
		}
		if err := s.syncWait(ctx, seq); err != nil {
			return err
		}
	}
	return nil
}

// frozenByMigration reports whether either endpoint sits in a held
// freeze window — the 2PC prepare vote consults it so a cross-shard
// union cannot race a migrating class.
func (s *Server) frozenByMigration(n, m string) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if len(s.migFrozen) == 0 {
		return nil
	}
	uf := s.st().uf
	for id, fr := range s.migFrozen {
		for _, x := range [2]string{n, m} {
			if x == fr.req.Class {
				return fault.Unavailablef("class of %q is migrating (migration %d); retry shortly", x, id)
			}
			if _, ok := uf.GetRelation(fr.req.Class, x); ok {
				return fault.Unavailablef("class of %q is migrating (migration %d); retry shortly", x, id)
			}
		}
	}
	return nil
}

// installMovedFence records where a class's nodes migrated to, keeping
// the freshest map epoch per node. Shared by the durable complete path
// and the provisional probe path (a source that learned the flip from
// a status probe while the completion is still being redriven). A
// durable install upgrades a same-epoch provisional fence; a
// provisional install never downgrades a durable one.
func (s *Server) installMovedFence(to string, mapEpoch uint64, nodes []string, durable bool) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	for _, n := range nodes {
		cur, ok := s.migMoved[n]
		if ok && (cur.mapEpoch > mapEpoch || (cur.mapEpoch == mapEpoch && cur.durable)) {
			continue
		}
		s.migMoved[n] = migMoved{group: to, mapEpoch: mapEpoch, durable: durable}
	}
}

// clearFreeze releases the freeze window for migration id; it reports
// whether one was held.
func (s *Server) clearFreeze(id uint64) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if _, ok := s.migFrozen[id]; !ok {
		return false
	}
	delete(s.migFrozen, id)
	return true
}

// migrationStats snapshots the participant migration counters.
func (s *Server) migrationStats() *MigrationStats {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.migEpoch == 0 && len(s.migFrozen) == 0 && len(s.migMoved) == 0 && s.migStalled == 0 {
		return nil
	}
	return &MigrationStats{
		Frozen:   len(s.migFrozen),
		Migrated: len(s.migMoved),
		Stalled:  s.migStalled,
		Fenced:   s.migFencedN,
		Expired:  s.migExpired,
		MaxEpoch: s.migEpoch,
	}
}

// handleMigrateFreeze reserves a freeze window: writes to the class
// stall (503+Retry-After) while reads keep serving. Only a writable
// primary freezes; a stale coordinator epoch is fenced with 403. The
// freeze starts the TTL probe loop so an orphaned window thaws itself.
func (s *Server) handleMigrateFreeze(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, fault.Unavailablef("node is draining"))
		return
	}
	if err := s.writable(); err != nil {
		s.refuseWithHint(w, err)
		return
	}
	var req MigrateFreezeRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Migration == 0 || req.Class == "" {
		writeError(w, fault.Invalidf("freeze requires migration and class"))
		return
	}
	s.migMu.Lock()
	if req.Epoch < s.migEpoch {
		s.migFencedN++
		cur := s.migEpoch
		s.migMu.Unlock()
		writeError(w, fault.Fencedf("freeze for migration %d carries stale coordinator epoch %d (current %d)", req.Migration, req.Epoch, cur))
		return
	}
	s.migEpoch = req.Epoch
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = time.Second
	}
	s.migFrozen[req.Migration] = &migFreeze{req: req, expires: time.Now().Add(ttl)}
	s.migMu.Unlock()
	// Install-then-check against live 2PC prepare reservations: a
	// prepare overlapping the class either sees this freeze in its own
	// post-install re-check or is seen here — the two windows can never
	// coexist, so a committed bridge edge cannot chase a class that
	// flips away between its prepare vote and its apply.
	if err := s.reservedOverClass(req.Class); err != nil {
		s.clearFreeze(req.Migration)
		writeError(w, err)
		return
	}
	go s.probeMigration(req.Migration, ttl)
	writeJSON(w, http.StatusOK, MigrateFreezeResponse{OK: true})
}

// reservedOverClass reports (as a retryable 503) whether any held 2PC
// prepare reservation touches the given class: its bridge edge would
// race a class-ownership flip, so a freeze must wait the reservation
// out rather than let the copy miss a committed-but-unapplied edge.
func (s *Server) reservedOverClass(class string) error {
	s.tpcMu.Lock()
	reserved := make([]PrepareRequest, 0, len(s.tpcReserved))
	for _, res := range s.tpcReserved {
		reserved = append(reserved, res.req)
	}
	s.tpcMu.Unlock()
	if len(reserved) == 0 {
		return nil
	}
	uf := s.st().uf
	for _, req := range reserved {
		for _, x := range [2]string{req.N, req.M} {
			if x == class {
				return fault.Unavailablef("cross-shard union intent %d is in its prepare window over the class of %q; retry shortly", req.Intent, class)
			}
			if _, ok := uf.GetRelation(class, x); ok {
				return fault.Unavailablef("cross-shard union intent %d is in its prepare window over the class of %q; retry shortly", req.Intent, class)
			}
		}
	}
	return nil
}

// handleMigrateRelease thaws a freeze window. The coordinator calls it
// on aborts; an operator calls it by hand to free a class stuck behind
// a coordinator that will never come back (see OPERATIONS.md).
func (s *Server) handleMigrateRelease(w http.ResponseWriter, r *http.Request) {
	var req MigrateReleaseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Migration == 0 {
		writeError(w, fault.Invalidf("release requires a migration id"))
		return
	}
	released := s.clearFreeze(req.Migration)
	writeJSON(w, http.StatusOK, MigrateReleaseResponse{OK: true, Released: released})
}

// handleMigrateComplete installs the post-flip stale-write fence: the
// moved nodes 403 ordinary writes from now on (with the new-owner
// hint), durably — the fence marker is journaled so a restart
// re-installs it — and the freeze window is released. Idempotent: the
// coordinator redrives it until acknowledged.
func (s *Server) handleMigrateComplete(w http.ResponseWriter, r *http.Request) {
	if err := s.writable(); err != nil {
		s.refuseWithHint(w, err)
		return
	}
	var req MigrateCompleteRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Migration == 0 || req.To == "" || len(req.Nodes) == 0 {
		writeError(w, fault.Invalidf("complete requires migration, to and nodes"))
		return
	}
	s.migMu.Lock()
	if req.Epoch < s.migEpoch {
		s.migFencedN++
		cur := s.migEpoch
		s.migMu.Unlock()
		writeError(w, fault.Fencedf("complete for migration %d carries stale coordinator epoch %d (current %d)", req.Migration, req.Epoch, cur))
		return
	}
	s.migEpoch = req.Epoch
	already := true
	for _, n := range req.Nodes {
		// A provisional fence from a flipped status probe does not count:
		// the marker must still reach the journal to survive a restart.
		if mv, ok := s.migMoved[n]; !ok || mv.mapEpoch < req.MapEpoch || !mv.durable {
			already = false
		}
	}
	s.migMu.Unlock()

	st := s.st()
	durable := st.store != nil
	if !already && durable {
		// Journal the fence marker between two synthetic namespaced
		// nodes: a fresh, trivially consistent relation whose reason
		// carries the moved node list — re-proved on replay like any
		// other entry, and scanned by restoreMigrationFences on open.
		body, err := json.Marshal(movedMarker{
			Migration: req.Migration, Epoch: req.Epoch, MapEpoch: req.MapEpoch,
			To: req.To, Nodes: req.Nodes,
		})
		if err != nil {
			writeError(w, fault.Invalidf("encode fence marker: %v", err))
			return
		}
		reason := MovedMarkerPrefix + string(body)
		mn := fmt.Sprintf("%s%d@e%d", MovedMarkerNode, req.Migration, req.Epoch)
		if st.uf.AddRelationReason(mn, mn+":b", 0, reason) {
			seq, err := s.persist(cert.Entry[string, int64]{N: mn, M: mn + ":b", Label: 0, Reason: reason})
			if err != nil {
				writeError(w, err)
				return
			}
			if err := s.syncWait(r.Context(), seq); err != nil {
				writeError(w, err)
				return
			}
		}
	}
	s.installMovedFence(req.To, req.MapEpoch, req.Nodes, durable)
	s.clearFreeze(req.Migration)
	writeJSON(w, http.StatusOK, MigrateCompleteResponse{OK: true, Durable: durable})
}

// handleMigrateSlice serves one window of a class's certified journal
// slice: every journal entry whose endpoints are in the class, in
// journal order, with a cursor (after = entries already taken) and the
// full member-node list. Read-only — it serves during the freeze, so
// the copy proceeds while writes stall. Requires a durable store: an
// in-memory source has no journal to certify a migration from.
func (s *Server) handleMigrateSlice(w http.ResponseWriter, r *http.Request) {
	if err := s.healthyState(); err != nil {
		writeError(w, err)
		return
	}
	st := s.st()
	if st.store == nil {
		writeError(w, fault.Unavailablef("journal-slice streaming requires a durable store"))
		return
	}
	q := r.URL.Query()
	class := q.Get("class")
	if class == "" {
		writeError(w, fault.Invalidf("query parameter class is required"))
		return
	}
	after, limit := 0, 256
	if v := q.Get("after"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &after); err != nil || after < 0 {
			writeError(w, fault.Invalidf("bad after cursor %q", v))
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit <= 0 {
			writeError(w, fault.Invalidf("bad limit %q", v))
			return
		}
	}
	inClass := func(x string) bool {
		if x == class {
			return true
		}
		_, ok := st.uf.GetRelation(class, x)
		return ok
	}
	resp := MigrateSliceResponse{Entries: []AssertRequest{}, Nodes: []string{}}
	seen := map[string]bool{class: true}
	// Page through the store's assertion list instead of copying it
	// whole for every slice window.
	page := make([]cert.Entry[string, int64], 256)
	for from := 0; ; from += len(page) {
		n := st.store.ReadEntries(page, from)
		for _, e := range page[:n] {
			if !inClass(e.N) {
				continue
			}
			resp.Total++
			if resp.Total > after && len(resp.Entries) < limit {
				resp.Entries = append(resp.Entries, AssertRequest{N: e.N, M: e.M, Label: e.Label, Reason: e.Reason})
			}
			for _, x := range [2]string{e.N, e.M} {
				if !seen[x] {
					seen[x] = true
					resp.Nodes = append(resp.Nodes, x)
				}
			}
		}
		if n < len(page) {
			break
		}
	}
	resp.Nodes = append([]string{class}, resp.Nodes...)
	resp.CRC = SliceChecksum(resp.Entries)
	writeJSON(w, http.StatusOK, resp)
}

// probeMigration is the source's crash-recovery loop for one freeze
// window: sleep out the TTL, then re-probe the coordinator's migration
// status with backoff. Pre-decision states keep waiting (bounded, then
// presumed abort); flipped is past the decision point, so the source
// installs a provisional moved-fence from the probe's flip material
// and thaws — or, lacking it, holds the window and keeps probing
// forever (a participant must never unilaterally release after the
// decision; the operator release endpoint stays the escape hatch).
// Aborted, done or unknown thaws the window.
func (s *Server) probeMigration(id uint64, ttl time.Duration) {
	held := func() (*migFreeze, bool) {
		s.migMu.Lock()
		defer s.migMu.Unlock()
		fr, ok := s.migFrozen[id]
		return fr, ok
	}
	expire := func() {
		if s.clearFreeze(id) {
			s.migMu.Lock()
			s.migExpired++
			s.migMu.Unlock()
		}
	}
	wait := ttl
	sawFlipped := false
	for probes := 0; ; probes++ {
		time.Sleep(wait)
		fr, ok := held()
		if !ok || s.draining.Load() {
			return
		}
		st, err := fetchMigrationStatus(fr.req.Coordinator, id)
		switch {
		case err != nil:
			// An unreachable coordinator presumes abort only before the
			// decision point: once a probe has seen the flip, ownership
			// has durably moved, and thawing without a fence would accept
			// writes the new owner never sees.
			if !sawFlipped && probes >= tpcMaxProbes {
				expire()
				return
			}
		case st.State == "flipped":
			sawFlipped = true
			if st.To != "" && len(st.Nodes) > 0 {
				// The probe carries the flip decision: fence the moved
				// nodes provisionally (stale writes 403 with the new-owner
				// hint instead of stalling) and thaw. The redriven
				// complete journals the durable marker when it lands.
				s.installMovedFence(st.To, st.MapEpoch, st.Nodes, false)
				s.clearFreeze(id)
				return
			}
		case st.State == "planned" || st.State == "frozen" ||
			st.State == "copying" || st.State == "verifying":
			if probes >= tpcMaxProbes {
				expire()
				return
			}
		default:
			// aborted, done, or unknown: nothing left to protect.
			expire()
			return
		}
		wait = ttl / 2
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
	}
}

// fetchMigrationStatus asks a coordinator for one migration's folded
// state.
func fetchMigrationStatus(coordinator string, id uint64) (MigrationStatusResponse, error) {
	var out MigrationStatusResponse
	if coordinator == "" {
		return out, fault.Unavailablef("no coordinator address to probe")
	}
	u := fmt.Sprintf("%s%s?migration=%d", strings.TrimSuffix(coordinator, "/"), MigrateStatusPath, id)
	if _, err := url.Parse(u); err != nil {
		return out, fault.Invalidf("coordinator url: %v", err)
	}
	resp, err := tpcProbeClient.Get(u)
	if err != nil {
		return out, fault.Unavailablef("probe coordinator: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fault.Unavailablef("probe coordinator: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fault.IOf("probe coordinator: %v", err)
	}
	return out, nil
}
