// Package wal implements the durable side of the labeled-union-find
// serving stack: a length-prefixed, CRC-checksummed, fsync-batched
// write-ahead journal of accepted assertions, periodic snapshots, and
// *certified* recovery.
//
// Durability here is not "trust the bytes": every journal record is an
// asserted relation with its certificate reason, so recovery does not
// restore state — it re-derives it. The journal is replayed through the
// group operations into a fresh union-find, and every replayed
// assertion is then re-proved by the independent certificate checker
// (cert.Check), which knows nothing about union-find internals or the
// on-disk format. A recovered state is therefore exactly as trustworthy
// as a freshly built one; corrupt bytes can crash recovery with a
// structured error, but they can never smuggle in a wrong relation.
//
// # On-disk format
//
// A journal file is a sequence of frames:
//
//	[4B LE payload length][4B LE CRC-32C of payload][payload]
//
// The first frame is a header record (magic, format version, label
// group id, and — for snapshot files — the journal sequence number the
// snapshot covers). Every other frame is an assertion record: a record
// type byte, a monotonically increasing sequence number, and the
// assertion's two nodes, label and reason as length-prefixed byte
// strings produced by a Codec.
//
// # Crash semantics
//
// Appends are acknowledged only after fsync (group commit, see Log), so
// a crash can only damage the unacknowledged tail. On open, the tail is
// classified:
//
//   - an incomplete frame, a frame whose declared length overruns the
//     file, or a zero-length frame (file-system zero fill) is a torn
//     write: the tail is truncated at the last valid record and the
//     byte count reported;
//   - a checksum failure on the file's final frame is likewise a torn
//     write (a tear that left garbage bytes behind the header);
//   - a checksum or decode failure anywhere else is real corruption:
//     DecodeAll reports a structured fault.ErrIO error and recovery
//     aborts — never a silent partial accept.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"luf/internal/cert"
	"luf/internal/fault"
)

// Format constants of the journal file format.
const (
	// Magic opens every header payload; it identifies a LUF journal.
	Magic = "LUFWAL1\n"
	// FormatVersion is the current record-format version.
	FormatVersion = 1
	// MaxRecordSize bounds a single frame's payload; a declared length
	// beyond it is treated as corruption, which keeps the decoder from
	// allocating attacker-controlled amounts of memory.
	MaxRecordSize = 1 << 20
)

// Record type bytes (first payload byte).
const (
	recHeader    byte = 1
	recAssert    byte = 2
	recFence     byte = 3
	recIntent    byte = 4
	recMigration byte = 5
)

// IntentState is the lifecycle state of a two-phase cross-shard union
// intent. States only move forward: Pending → Committed → Done, or
// Pending → Aborted. A pending intent found during recovery is presumed
// aborted (the decision record is what makes a commit a commit).
type IntentState byte

// Intent lifecycle states, in the order they may be recorded.
const (
	// IntentPending is an intent whose outcome is not yet decided; a
	// crash here rolls it back (presumed abort).
	IntentPending IntentState = 1
	// IntentCommitted is a decided commit: both participants voted yes
	// and the decision is durable; the bridge edges must eventually be
	// applied (re-driven after a crash).
	IntentCommitted IntentState = 2
	// IntentAborted is a decided abort; participants' reservations are
	// released and no bridge edge may ever be applied for this intent.
	IntentAborted IntentState = 3
	// IntentDone is a committed intent whose bridge edges are known
	// applied on both shards; recovery has nothing left to re-drive.
	IntentDone IntentState = 4
)

// String names the state for logs and stats.
func (s IntentState) String() string {
	switch s {
	case IntentPending:
		return "pending"
	case IntentCommitted:
		return "committed"
	case IntentAborted:
		return "aborted"
	case IntentDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", byte(s))
	}
}

// IntentRecord is one decoded two-phase intent record. A Pending record
// carries the full union (groups, nodes, label, reason); decision
// records (Committed/Aborted/Done) carry only the state transition and
// reference the pending record by ID.
type IntentRecord[N comparable, L any] struct {
	// ID is the coordinator-assigned intent sequence number, strictly
	// increasing per coordinator log.
	ID uint64
	// Epoch is the coordinator fencing epoch that wrote the record.
	Epoch uint64
	// State is the recorded lifecycle state.
	State IntentState
	// GroupA and GroupB name the two owner shard groups.
	GroupA, GroupB string
	// N and M are the union's endpoints (N owned by GroupA, M by GroupB).
	N, M N
	// Label is the asserted relation label for the bridge edge N --L--> M.
	Label L
	// Reason is the client-supplied certificate reason.
	Reason string
}

// MigrationState is the lifecycle state of a class-ownership migration.
// States only move forward along
//
//	planned → frozen → copying → verifying → flipped → done
//
// with aborted reachable from every pre-flip state. The Flipped record
// is the decision: a crash before it presumes abort (ownership never
// moved), a crash after it redrives the flip to completion (ownership
// moved, only cleanup remains).
type MigrationState byte

// Migration lifecycle states, in the order they may be recorded.
const (
	// MigrationPlanned is a durably logged migration whose freeze window
	// has not been reserved yet; a crash here presumes abort.
	MigrationPlanned MigrationState = 1
	// MigrationFrozen means the source owner accepted the freeze: writes
	// to the migrating class stall (503+Retry-After) while reads keep
	// serving.
	MigrationFrozen MigrationState = 2
	// MigrationCopying means the certified journal slice is streaming to
	// the destination group; the record carries a re-proved-entry
	// watermark so a resumed copy knows how far it got.
	MigrationCopying MigrationState = 3
	// MigrationVerifying means the copy completed and the destination's
	// adopted state is being spot-checked (relation probes re-proved by
	// the independent checker) before the flip.
	MigrationVerifying MigrationState = 4
	// MigrationFlipped is the fsynced ownership decision: the override
	// table now routes the class's nodes to the destination group. A
	// crash after this record redrives completion, never abort.
	MigrationFlipped MigrationState = 5
	// MigrationDone means the source owner installed its 403 fence and
	// released the freeze; recovery has nothing left to redrive.
	MigrationDone MigrationState = 6
	// MigrationAborted is a decided abort: the freeze is released and
	// ownership never changed. Only pre-flip states can abort.
	MigrationAborted MigrationState = 7
)

// String names the state for logs, stats and operator output.
func (s MigrationState) String() string {
	switch s {
	case MigrationPlanned:
		return "planned"
	case MigrationFrozen:
		return "frozen"
	case MigrationCopying:
		return "copying"
	case MigrationVerifying:
		return "verifying"
	case MigrationFlipped:
		return "flipped"
	case MigrationDone:
		return "done"
	case MigrationAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", byte(s))
	}
}

// MigrationRecord is one decoded class-ownership migration record. A
// Planned record carries the full plan (class representative, source
// and destination groups, reason); a Copying record carries the copy
// watermark; the Flipped decision record carries the new map epoch and
// the class's member nodes so recovery can rebuild the override table
// without consulting any shard; other states are bare transitions
// referencing the plan by ID.
type MigrationRecord[N comparable] struct {
	// ID is the coordinator-assigned migration sequence number, strictly
	// increasing per migration log.
	ID uint64
	// Epoch is the coordinator fencing epoch that wrote the record.
	Epoch uint64
	// State is the recorded lifecycle state.
	State MigrationState
	// Class is the migrating class's representative node (any member;
	// the source owner resolves the full class).
	Class N
	// From and To name the source and destination shard groups.
	From, To string
	// Reason records why the move was planned (operator request or a
	// rebalancer policy decision), for the audit trail.
	Reason string
	// Copied is the re-proved-entry watermark of a Copying record: the
	// number of journal-slice entries the destination has adopted.
	Copied uint64
	// MapEpoch is the shard-map epoch the Flipped decision establishes.
	MapEpoch uint64
	// Nodes is the Flipped record's member list: every node whose
	// ownership the override table now routes to the To group.
	Nodes []N
}

// frameOverhead is the per-frame framing cost: length plus checksum.
const frameOverhead = 8

// castagnoli is the CRC-32C table used for every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec serializes nodes and labels of one union-find instantiation for
// the journal. Encoders must be injective; decoders must reject what
// they cannot parse (never panic) and must round-trip every encoded
// value. GroupID names the (group, node-type) pair and is stored in
// every file header, so recovery refuses to replay a journal into the
// wrong algebra.
type Codec[N comparable, L any] interface {
	// GroupID returns the stable identifier of the codec's group and
	// node type, e.g. "delta/string".
	GroupID() string
	// EncodeNode serializes a node.
	EncodeNode(n N) []byte
	// DecodeNode parses a node; it reports an error for byte strings
	// EncodeNode cannot produce.
	DecodeNode(b []byte) (N, error)
	// EncodeLabel serializes a label.
	EncodeLabel(l L) []byte
	// DecodeLabel parses a label; it reports an error for byte strings
	// EncodeLabel cannot produce.
	DecodeLabel(b []byte) (L, error)
}

// Header is the decoded first record of a journal or snapshot file.
type Header struct {
	// Version is the file's format version.
	Version int
	// GroupID is the codec identifier the file was written with.
	GroupID string
	// CoversSeq positions the file against the global sequence
	// numbering. In a snapshot file it is the journal sequence number up
	// to which the snapshot's entries subsume the journal (recovery
	// replays only records with a larger sequence number). In a journal
	// file it is zero until the journal is trimmed; after a trim it is
	// the trim base — recovery refuses to proceed unless a snapshot
	// covering at least that sequence number exists, so a lost snapshot
	// can never silently shrink the state.
	CoversSeq uint64
	// Fence is the replication fencing token in force when the file was
	// written (snapshots and trimmed journals persist it here; live
	// journals persist fence changes as fence records instead).
	Fence uint64
}

// Record is one decoded assertion record.
type Record[N comparable, L any] struct {
	// Seq is the record's journal sequence number (monotonically
	// increasing within a file).
	Seq uint64
	// Entry is the asserted relation with its certificate reason.
	Entry cert.Entry[N, L]
	// Off and Len locate the frame's payload inside the decoded image
	// (Off is the payload offset, Len its length), letting tests and
	// fuzz targets re-verify the stored checksum independently.
	Off, Len int
}

// appendFrame appends one frame (length, CRC-32C, payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendString appends a uvarint-length-prefixed byte string to dst.
func appendString(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encodeHeader builds a header record payload. The fence field is a
// backward-compatible trailing extension: it is written only when
// non-zero, and decodeHeader defaults it to zero when absent, so
// fence-free files keep their exact pre-fencing byte layout.
func encodeHeader(groupID string, coversSeq, fence uint64) []byte {
	p := []byte{recHeader}
	p = append(p, Magic...)
	p = binary.AppendUvarint(p, FormatVersion)
	p = appendString(p, []byte(groupID))
	p = binary.AppendUvarint(p, coversSeq)
	if fence > 0 {
		p = binary.AppendUvarint(p, fence)
	}
	return p
}

// encodeFence builds a fence record payload carrying one fencing token.
func encodeFence(token uint64) []byte {
	p := []byte{recFence}
	return binary.AppendUvarint(p, token)
}

// appendAssertFrame appends the frame of one assertion record to dst,
// encoding the payload in place behind the frame header, so a record
// costs one buffer beyond its codec-encoded fields.
func appendAssertFrame[N comparable, L any](dst []byte, c Codec[N, L], seq uint64, e cert.Entry[N, L]) []byte {
	nb, mb, lb := c.EncodeNode(e.N), c.EncodeNode(e.M), c.EncodeLabel(e.Label)
	start := len(dst)
	dst = slices.Grow(dst, frameOverhead+1+5*binary.MaxVarintLen64+len(nb)+len(mb)+len(lb)+len(e.Reason))
	dst = dst[:start+frameOverhead]
	dst = append(dst, recAssert)
	dst = binary.AppendUvarint(dst, seq)
	dst = appendString(dst, nb)
	dst = appendString(dst, mb)
	dst = appendString(dst, lb)
	dst = binary.AppendUvarint(dst, uint64(len(e.Reason)))
	dst = append(dst, e.Reason...)
	payload := dst[start+frameOverhead:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// encodeIntent builds an intent record payload. Only pending records
// carry the union body; decision records are state+id+epoch.
func encodeIntent[N comparable, L any](c Codec[N, L], r IntentRecord[N, L]) []byte {
	p := []byte{recIntent, byte(r.State)}
	p = binary.AppendUvarint(p, r.ID)
	p = binary.AppendUvarint(p, r.Epoch)
	if r.State == IntentPending {
		p = appendString(p, []byte(r.GroupA))
		p = appendString(p, []byte(r.GroupB))
		p = appendString(p, c.EncodeNode(r.N))
		p = appendString(p, c.EncodeNode(r.M))
		p = appendString(p, c.EncodeLabel(r.Label))
		p = appendString(p, []byte(r.Reason))
	}
	return p
}

// decodeIntent parses an intent payload (sans the type byte).
func decodeIntent[N comparable, L any](c Codec[N, L], cur *cursor) (IntentRecord[N, L], error) {
	var r IntentRecord[N, L]
	st, err := cur.byte()
	if err != nil {
		return r, err
	}
	r.State = IntentState(st)
	switch r.State {
	case IntentPending, IntentCommitted, IntentAborted, IntentDone:
	default:
		return r, fmt.Errorf("unknown intent state %d", st)
	}
	if r.ID, err = cur.uvarint(); err != nil {
		return r, err
	}
	if r.Epoch, err = cur.uvarint(); err != nil {
		return r, err
	}
	if r.State == IntentPending {
		var ga, gb, nb, mb, lb, rb []byte
		if err := cur.fields(&ga, &gb, &nb, &mb, &lb, &rb); err != nil {
			return r, err
		}
		r.GroupA, r.GroupB = string(ga), string(gb)
		if r.N, err = c.DecodeNode(nb); err != nil {
			return r, fmt.Errorf("node: %v", err)
		}
		if r.M, err = c.DecodeNode(mb); err != nil {
			return r, fmt.Errorf("node: %v", err)
		}
		if r.Label, err = c.DecodeLabel(lb); err != nil {
			return r, fmt.Errorf("label: %v", err)
		}
		r.Reason = string(rb)
	}
	return r, cur.done()
}

// encodeMigration builds a migration record payload. Planned records
// carry the plan body, Copying records the watermark, Flipped records
// the new map epoch plus the member-node list; other states are bare
// state+id+epoch transitions.
func encodeMigration[N comparable, L any](c Codec[N, L], r MigrationRecord[N]) []byte {
	p := []byte{recMigration, byte(r.State)}
	p = binary.AppendUvarint(p, r.ID)
	p = binary.AppendUvarint(p, r.Epoch)
	switch r.State {
	case MigrationPlanned:
		p = appendString(p, c.EncodeNode(r.Class))
		p = appendString(p, []byte(r.From))
		p = appendString(p, []byte(r.To))
		p = appendString(p, []byte(r.Reason))
	case MigrationCopying:
		p = binary.AppendUvarint(p, r.Copied)
	case MigrationFlipped:
		p = binary.AppendUvarint(p, r.MapEpoch)
		p = binary.AppendUvarint(p, uint64(len(r.Nodes)))
		for _, n := range r.Nodes {
			p = appendString(p, c.EncodeNode(n))
		}
	}
	return p
}

// decodeMigration parses a migration payload (sans the type byte).
func decodeMigration[N comparable, L any](c Codec[N, L], cur *cursor) (MigrationRecord[N], error) {
	var r MigrationRecord[N]
	st, err := cur.byte()
	if err != nil {
		return r, err
	}
	r.State = MigrationState(st)
	switch r.State {
	case MigrationPlanned, MigrationFrozen, MigrationCopying, MigrationVerifying,
		MigrationFlipped, MigrationDone, MigrationAborted:
	default:
		return r, fmt.Errorf("unknown migration state %d", st)
	}
	if r.ID, err = cur.uvarint(); err != nil {
		return r, err
	}
	if r.Epoch, err = cur.uvarint(); err != nil {
		return r, err
	}
	switch r.State {
	case MigrationPlanned:
		var cb, fb, tb, rb []byte
		if err := cur.fields(&cb, &fb, &tb, &rb); err != nil {
			return r, err
		}
		if r.Class, err = c.DecodeNode(cb); err != nil {
			return r, fmt.Errorf("class: %v", err)
		}
		r.From, r.To, r.Reason = string(fb), string(tb), string(rb)
	case MigrationCopying:
		if r.Copied, err = cur.uvarint(); err != nil {
			return r, err
		}
	case MigrationFlipped:
		if r.MapEpoch, err = cur.uvarint(); err != nil {
			return r, err
		}
		count, err := cur.uvarint()
		if err != nil {
			return r, err
		}
		if count > uint64(len(cur.b)-cur.off) {
			return r, fmt.Errorf("node count %d overruns payload", count)
		}
		r.Nodes = make([]N, 0, count)
		for i := uint64(0); i < count; i++ {
			nb, err := cur.bytes()
			if err != nil {
				return r, err
			}
			n, err := c.DecodeNode(nb)
			if err != nil {
				return r, fmt.Errorf("node: %v", err)
			}
			r.Nodes = append(r.Nodes, n)
		}
	}
	return r, cur.done()
}

// cursor is a panic-free reader over a payload.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("payload truncated at byte %d", c.off)
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at byte %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) bytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.off) {
		return nil, fmt.Errorf("byte string of length %d overruns payload at byte %d", n, c.off)
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// fields reads consecutive byte strings into dst, in order.
func (c *cursor) fields(dst ...*[]byte) error {
	for _, d := range dst {
		b, err := c.bytes()
		if err != nil {
			return err
		}
		*d = b
	}
	return nil
}

func (c *cursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("%d trailing bytes after record", len(c.b)-c.off)
	}
	return nil
}

// decodeHeader parses a header payload (sans the type byte, already
// consumed by the caller's cursor).
func decodeHeader(cur *cursor) (Header, error) {
	var h Header
	for i := 0; i < len(Magic); i++ {
		b, err := cur.byte()
		if err != nil || b != Magic[i] {
			return h, fmt.Errorf("bad magic")
		}
	}
	v, err := cur.uvarint()
	if err != nil {
		return h, err
	}
	if v != FormatVersion {
		return h, fmt.Errorf("unsupported format version %d", v)
	}
	h.Version = int(v)
	gid, err := cur.bytes()
	if err != nil {
		return h, err
	}
	h.GroupID = string(gid)
	covers, err := cur.uvarint()
	if err != nil {
		return h, err
	}
	h.CoversSeq = covers
	if cur.off < len(cur.b) {
		fence, err := cur.uvarint()
		if err != nil {
			return h, err
		}
		h.Fence = fence
	}
	return h, cur.done()
}

// decodeAssert parses an assertion payload (sans the type byte).
func decodeAssert[N comparable, L any](c Codec[N, L], cur *cursor) (uint64, cert.Entry[N, L], error) {
	var e cert.Entry[N, L]
	seq, err := cur.uvarint()
	if err != nil {
		return 0, e, err
	}
	var nb, mb, lb, rb []byte
	if err := cur.fields(&nb, &mb, &lb, &rb); err != nil {
		return 0, e, err
	}
	if err := cur.done(); err != nil {
		return 0, e, err
	}
	if e.N, err = c.DecodeNode(nb); err != nil {
		return 0, e, fmt.Errorf("node: %v", err)
	}
	if e.M, err = c.DecodeNode(mb); err != nil {
		return 0, e, fmt.Errorf("node: %v", err)
	}
	if e.Label, err = c.DecodeLabel(lb); err != nil {
		return 0, e, fmt.Errorf("label: %v", err)
	}
	e.Reason = string(rb)
	return seq, e, nil
}

// DecodeResult is DecodeAll's outcome over one file image.
type DecodeResult[N comparable, L any] struct {
	// Header is the file header (zero when the image is empty or its
	// tail tore before the header frame completed).
	Header Header
	// HasHeader reports whether a valid header record was decoded.
	HasHeader bool
	// Records are the decoded assertion records, in file order.
	Records []Record[N, L]
	// Intents are the decoded two-phase intent records, in file order
	// (empty for assert journals; the IntentLog folds them into final
	// per-intent states).
	Intents []IntentRecord[N, L]
	// Migrations are the decoded class-ownership migration records, in
	// file order (the MigrationLog folds them into final per-migration
	// states).
	Migrations []MigrationRecord[N]
	// Fence is the highest fencing token seen in the file (header field
	// or fence records); zero when the file predates fencing.
	Fence uint64
	// ValidLen is the byte length of the valid prefix; bytes beyond it
	// are the torn tail.
	ValidLen int
	// TornBytes is len(image) - ValidLen: the bytes a crash tore.
	TornBytes int
}

// countFrames counts the frames whose declared lengths chain through
// image, without checking them: an upper bound on the records a decode
// of image finds, used to size the record slice once.
func countFrames(image []byte) int {
	n := 0
	for off := 0; len(image)-off >= frameOverhead; n++ {
		plen := int(binary.LittleEndian.Uint32(image[off : off+4]))
		if plen == 0 || plen > len(image)-off-frameOverhead {
			break
		}
		off += frameOverhead + plen
	}
	return n
}

// DecodeAll parses a whole journal or snapshot image. It never panics.
// Torn tails (see the package comment's crash semantics) are reported
// through TornBytes with a nil error; mid-file damage — a bad checksum
// or undecodable record that is *not* the file's final frame — returns
// a structured fault.ErrIO error, as does a header whose group id
// differs from the codec's.
func DecodeAll[N comparable, L any](image []byte, c Codec[N, L]) (DecodeResult[N, L], error) {
	res := DecodeResult[N, L]{}
	off := 0
	lastSeq := uint64(0)
	fail := func(format string, args ...any) (DecodeResult[N, L], error) {
		return res, fault.IOf("journal corrupt at byte %d: %s", off, fmt.Sprintf(format, args...))
	}
	for {
		res.ValidLen = off
		res.TornBytes = len(image) - off
		if len(image)-off < frameOverhead {
			return res, nil // torn: incomplete frame header (or clean EOF)
		}
		plen := int(binary.LittleEndian.Uint32(image[off : off+4]))
		if plen == 0 {
			return res, nil // torn: zero fill / preallocated tail
		}
		if plen > MaxRecordSize {
			return fail("frame length %d exceeds limit %d", plen, MaxRecordSize)
		}
		if plen > len(image)-off-frameOverhead {
			return res, nil // torn: declared payload overruns the file
		}
		want := binary.LittleEndian.Uint32(image[off+4 : off+8])
		payload := image[off+frameOverhead : off+frameOverhead+plen]
		atEOF := off+frameOverhead+plen == len(image)
		if crc32.Checksum(payload, castagnoli) != want {
			if atEOF {
				return res, nil // torn: garbage in the file's final frame
			}
			return fail("checksum mismatch on frame of %d bytes", plen)
		}
		cur := &cursor{b: payload}
		typ, err := cur.byte()
		if err != nil {
			return fail("%v", err)
		}
		if typ != recHeader && !res.HasHeader {
			return fail("record of type %d before header", typ)
		}
		switch typ {
		case recHeader:
			if res.HasHeader {
				return fail("duplicate header record")
			}
			if off != 0 {
				return fail("header record not first")
			}
			h, err := decodeHeader(cur)
			if err != nil {
				return fail("header: %v", err)
			}
			if h.GroupID != c.GroupID() {
				return fail("group id %q, codec expects %q", h.GroupID, c.GroupID())
			}
			res.Header, res.HasHeader = h, true
			if h.Fence > res.Fence {
				res.Fence = h.Fence
			}
		case recFence:
			token, err := cur.uvarint()
			if err != nil {
				return fail("fence: %v", err)
			}
			if err := cur.done(); err != nil {
				return fail("fence: %v", err)
			}
			if token > res.Fence {
				res.Fence = token
			}
		case recAssert:
			seq, e, err := decodeAssert(c, cur)
			if err != nil {
				return fail("assertion: %v", err)
			}
			if seq <= lastSeq {
				return fail("sequence %d not above predecessor %d", seq, lastSeq)
			}
			lastSeq = seq
			if res.Records == nil {
				res.Records = make([]Record[N, L], 0, countFrames(image[off:]))
			}
			res.Records = append(res.Records, Record[N, L]{
				Seq: seq, Entry: e, Off: off + frameOverhead, Len: plen,
			})
		case recIntent:
			r, err := decodeIntent(c, cur)
			if err != nil {
				return fail("intent: %v", err)
			}
			res.Intents = append(res.Intents, r)
		case recMigration:
			r, err := decodeMigration(c, cur)
			if err != nil {
				return fail("migration: %v", err)
			}
			res.Migrations = append(res.Migrations, r)
		default:
			return fail("unknown record type %d", typ)
		}
		off += frameOverhead + plen
	}
}
