package wal

import (
	"encoding/binary"
	"hash/crc32"

	"luf/internal/cert"
	"luf/internal/fault"
)

// SeqEntry is one persisted assertion together with its global journal
// sequence number. Sequence numbers are assigned once, by whichever
// node was primary when the assertion was accepted, and preserved
// verbatim through snapshots, trims and replication — they are the
// cluster-wide identity of an assertion.
type SeqEntry[N comparable, L any] struct {
	// Seq is the assertion's journal sequence number.
	Seq uint64
	// Entry is the asserted relation with its certificate reason.
	Entry cert.Entry[N, L]
}

// EncodeFrames renders records as a headerless sequence of journal
// frames — the wire format of log shipping. Each frame is exactly the
// bytes the record occupies in a journal file (length, CRC-32C,
// assertion payload), so a follower applies what the primary's disk
// holds, not a re-interpretation of it.
func EncodeFrames[N comparable, L any](c Codec[N, L], recs []SeqEntry[N, L]) []byte {
	var out []byte
	for _, r := range recs {
		out = appendAssertFrame(out, c, r.Seq, r.Entry)
	}
	return out
}

// DecodeFrames parses a headerless shipped frame sequence. Unlike
// DecodeAll it grants no torn-tail leniency: HTTP delivers a body in
// full or not at all, so any damage — a short frame, a checksum
// mismatch, a non-assert record, out-of-order sequence numbers — is a
// structured fault.ErrIO refusal, never a partial accept.
func DecodeFrames[N comparable, L any](image []byte, c Codec[N, L]) ([]SeqEntry[N, L], error) {
	var out []SeqEntry[N, L]
	off := 0
	lastSeq := uint64(0)
	fail := func(format string, args ...any) ([]SeqEntry[N, L], error) {
		args = append([]any{off}, args...)
		return nil, fault.IOf("shipped frames corrupt at byte %d: "+format, args...)
	}
	for off < len(image) {
		if len(image)-off < frameOverhead {
			return fail("incomplete frame header")
		}
		plen := int(binary.LittleEndian.Uint32(image[off : off+4]))
		if plen == 0 || plen > MaxRecordSize {
			return fail("frame length %d out of range", plen)
		}
		if plen > len(image)-off-frameOverhead {
			return fail("declared payload of %d bytes overruns the body", plen)
		}
		want := binary.LittleEndian.Uint32(image[off+4 : off+8])
		payload := image[off+frameOverhead : off+frameOverhead+plen]
		if crc32.Checksum(payload, castagnoli) != want {
			return fail("checksum mismatch on frame of %d bytes", plen)
		}
		cur := &cursor{b: payload}
		typ, err := cur.byte()
		if err != nil {
			return fail("%v", err)
		}
		if typ != recAssert {
			return fail("record type %d is not an assertion", typ)
		}
		seq, e, err := decodeAssert(c, cur)
		if err != nil {
			return fail("assertion: %v", err)
		}
		if seq <= lastSeq {
			return fail("sequence %d not above predecessor %d", seq, lastSeq)
		}
		lastSeq = seq
		out = append(out, SeqEntry[N, L]{Seq: seq, Entry: e})
		off += frameOverhead + plen
	}
	return out, nil
}

// RecordCRC returns the CRC-32C of a record's encoded assertion
// payload. Both ends of a replication link compute it from their own
// copy of the record, so a shipped batch can carry the checksum of the
// record *preceding* it and the follower can prove its history matches
// the primary's before appending — the log-matching check that turns
// silent divergence into a structured refusal.
func RecordCRC[N comparable, L any](c Codec[N, L], r SeqEntry[N, L]) uint32 {
	return binary.LittleEndian.Uint32(appendAssertFrame(nil, c, r.Seq, r.Entry)[4:frameOverhead])
}
