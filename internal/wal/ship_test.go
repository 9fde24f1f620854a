package wal

import (
	"errors"
	"testing"

	"luf/internal/fault"
)

// shipRecords builds a consistent record batch with given sequence
// numbers for shipping tests.
func shipRecords(seqs ...uint64) []SeqEntry[string, int64] {
	entries := consistentEntries(len(seqs), 7)
	out := make([]SeqEntry[string, int64], len(seqs))
	for i, s := range seqs {
		out[i] = SeqEntry[string, int64]{Seq: s, Entry: entries[i]}
	}
	return out
}

func TestShipFramesRoundTrip(t *testing.T) {
	c := DeltaCodec{}
	recs := shipRecords(3, 4, 9, 10)
	body := EncodeFrames(c, recs)
	got, err := DecodeFrames(body, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Seq != recs[i].Seq || got[i].Entry != recs[i].Entry {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	empty, err := DecodeFrames(nil, c)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty body decoded to %d records, err %v", len(empty), err)
	}
}

func TestShipFramesRefuseAnyDamage(t *testing.T) {
	c := DeltaCodec{}
	body := EncodeFrames(c, shipRecords(1, 2, 3))

	// Unlike the journal's torn-tail leniency, every mid-frame
	// truncation of a shipped body is a refusal. (A cut at an exact
	// frame boundary is a well-formed shorter batch — the replication
	// protocol detects those through the batch's record count.)
	boundaries := map[int]bool{}
	off := 0
	for _, r := range shipRecords(1, 2, 3) {
		off += len(appendAssertFrame(nil, c, r.Seq, r.Entry))
		boundaries[off] = true
	}
	for cut := 1; cut < len(body); cut++ {
		if boundaries[cut] {
			continue
		}
		if _, err := DecodeFrames(body[:cut], c); err == nil || !errors.Is(err, fault.ErrIO) {
			t.Fatalf("truncation at %d accepted (err %v)", cut, err)
		}
	}
	// So is any flipped byte.
	for i := 0; i < len(body); i++ {
		bad := make([]byte, len(body))
		copy(bad, body)
		bad[i] ^= 0xff
		if _, err := DecodeFrames(bad, c); err == nil || !errors.Is(err, fault.ErrIO) {
			t.Fatalf("flipped byte %d accepted (err %v)", i, err)
		}
	}
	// Non-assert frames have no business on the shipping channel.
	fenceFrame := appendFrame(nil, encodeFence(5))
	if _, err := DecodeFrames(fenceFrame, c); err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("fence frame accepted (err %v)", err)
	}
	// Out-of-order sequence numbers are a protocol violation.
	disorder := EncodeFrames(c, shipRecords(2, 1))
	if _, err := DecodeFrames(disorder, c); err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("descending sequence accepted (err %v)", err)
	}
}

func TestRecordCRCDetectsDivergence(t *testing.T) {
	c := DeltaCodec{}
	recs := shipRecords(1, 2)
	a := RecordCRC(c, recs[0])
	if b := RecordCRC(c, recs[0]); b != a {
		t.Fatalf("RecordCRC not deterministic: %d vs %d", a, b)
	}
	other := recs[0]
	other.Entry.Reason = "forged"
	if RecordCRC(c, other) == a {
		t.Fatal("RecordCRC identical for different record content")
	}
	shifted := recs[0]
	shifted.Seq++
	if RecordCRC(c, shifted) == a {
		t.Fatal("RecordCRC identical for different sequence number")
	}
}
