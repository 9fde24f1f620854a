package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// dedupModel is a reference model of the store's dedup semantics,
// written without the certificate journal: the records on disk in
// sequence order, and the distinct assertions — same endpoints and
// label — each as its first persisted record holds it. A failed append
// leaves it untouched and kills the log until the next open.
type dedupModel struct {
	records []SeqEntry[string, int64]
	entries []cert.Entry[string, int64]
	seen    map[[3]string]bool
	dead    bool
}

func dedupKeyOf(e cert.Entry[string, int64]) [3]string {
	return [3]string{e.N, e.M, strconv.FormatInt(e.Label, 10)}
}

func (m *dedupModel) seq() uint64 { return uint64(len(m.records)) }

func (m *dedupModel) persist(e cert.Entry[string, int64]) {
	m.records = append(m.records, SeqEntry[string, int64]{Seq: m.seq() + 1, Entry: e})
	if k := dedupKeyOf(e); !m.seen[k] {
		m.seen[k] = true
		m.entries = append(m.entries, e)
	}
}

// image renders the journal file the model's records must produce,
// encoding every frame independently of the store's encoder.
func (m *dedupModel) image() []byte {
	img := appendFrame(nil, encodeHeader(DeltaCodec{}.GroupID(), 0, 0))
	for _, r := range m.records {
		p := binary.AppendUvarint([]byte{recAssert}, r.Seq)
		for _, f := range []string{r.Entry.N, r.Entry.M, strconv.FormatInt(r.Entry.Label, 10), r.Entry.Reason} {
			p = binary.AppendUvarint(p, uint64(len(f)))
			p = append(p, f...)
		}
		img = appendFrame(img, p)
	}
	return img
}

// TestStoreDedupMatchesModel drives random operation sequences through
// a store and the model side by side: fresh appends, exact duplicates
// under a different reason, assertions a recording union-find put in
// the journal before the store saw them, replicated records that
// duplicate a persisted assertion at a new sequence number (a failover
// boundary), idempotent and divergent re-deliveries, injected disk-full
// appends, and reopens. After every step Entries (order and reasons),
// Len and LastSeq must match the model; after every reopen and at the
// end the journal bytes on disk must too.
func TestStoreDedupMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runDedupModel(t, seed) })
	}
}

func runDedupModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Few nodes with few potentials: the pool holds both orientations
	// of a pair, self-loops, and distinct assertions that share one
	// endpoint and their label, which dedup must keep apart.
	vals := make([]int64, 8)
	for i := range vals {
		vals[i] = int64(rng.Intn(3))
	}
	var pool []cert.Entry[string, int64]
	for i := 0; i < 30; i++ {
		a, b := rng.Intn(len(vals)), rng.Intn(len(vals))
		pool = append(pool, cert.Entry[string, int64]{
			N: "n" + strconv.Itoa(a), M: "n" + strconv.Itoa(b), Label: vals[b] - vals[a],
			Reason: "pool-" + strconv.Itoa(i),
		})
	}
	dir := t.TempDir()
	m := &dedupModel{seen: map[[3]string]bool{}}
	var st *Store[string, int64]
	var rec *Recovered[string, int64]
	open := func() {
		t.Helper()
		if st != nil {
			st.Close()
		}
		inj := &fault.Injector{}
		if rng.Intn(2) == 0 {
			inj.FullDiskAt = 1 + rng.Intn(30)
		}
		var err error
		st, rec, err = Open(dir, group.Delta{}, DeltaCodec{}, Options{Inject: inj})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		m.dead = false
		if rec.Entries != len(m.entries) {
			t.Fatalf("open recovered %d entries, model holds %d", rec.Entries, len(m.entries))
		}
		img, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, m.image()) {
			t.Fatalf("journal on disk (%d bytes) differs from the model's records (%d bytes)", len(img), len(m.image()))
		}
	}
	open()
	defer func() { st.Close() }()
	persisted := func() cert.Entry[string, int64] { return m.entries[rng.Intn(len(m.entries))] }
	// write applies one write to the store and checks its outcome: a
	// dead log fails every write; otherwise it succeeds, and the model
	// takes the record when want is set.
	write := func(op string, err error, e cert.Entry[string, int64], want bool) {
		t.Helper()
		if m.dead {
			if !errors.Is(err, fault.ErrIO) {
				t.Fatalf("%s on a failed log: err = %v, want sticky ErrIO", op, err)
			}
			return
		}
		if errors.Is(err, fault.ErrInjected) {
			m.dead = true
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if want {
			m.persist(e)
		}
	}
	for step := 0; step < 120; step++ {
		switch r := rng.Intn(20); {
		case r < 7: // an assertion from the pool, fresh or an exact duplicate
			e := pool[rng.Intn(len(pool))]
			_, err := st.Append(e)
			write("append", err, e, !m.seen[dedupKeyOf(e)])
		case r < 10 && len(m.entries) > 0: // a duplicate under another reason
			e := persisted()
			e.Reason = fmt.Sprintf("retry-%d", step)
			_, err := st.Append(e)
			write("duplicate append", err, e, false)
		case r < 12: // a recording union-find saw it first, under its own reason
			e := pool[rng.Intn(len(pool))]
			uf := e
			uf.Reason = fmt.Sprintf("uf-%d", step)
			rec.Journal.Record(uf.N, uf.M, uf.Label, uf.Reason)
			_, err := st.Append(e)
			write("append after record", err, e, !m.seen[dedupKeyOf(e)])
		case r < 15 && len(m.entries) > 0: // replicated duplicate across a failover boundary
			e := persisted()
			e.Reason = fmt.Sprintf("failover-%d", step)
			err := st.AppendReplicated(st.LastSeq()+1, e)
			write("replicated duplicate", err, e, true)
		case r < 17: // replicated record, fresh or not
			e := pool[rng.Intn(len(pool))]
			err := st.AppendReplicated(st.LastSeq()+1, e)
			write("replicated append", err, e, true)
		case r < 19 && len(m.records) > 0: // re-delivery of a held sequence number
			held := m.records[rng.Intn(len(m.records))]
			if err := st.AppendReplicated(held.Seq, held.Entry); err != nil {
				t.Fatalf("idempotent re-delivery of %d: %v", held.Seq, err)
			}
			forged := held.Entry
			forged.Reason += "-forged"
			var div *DivergenceError
			if err := st.AppendReplicated(held.Seq, forged); !errors.As(err, &div) {
				t.Fatalf("divergent re-delivery of %d: err = %v, want DivergenceError", held.Seq, err)
			}
		default:
			open()
		}
		if got := st.Entries(); !slices.Equal(got, m.entries) {
			t.Fatalf("step %d: Entries = %v, model %v", step, got, m.entries)
		}
		if st.Len() != len(m.entries) || st.LastSeq() != m.seq() {
			t.Fatalf("step %d: Len %d LastSeq %d, model %d and %d", step, st.Len(), st.LastSeq(), len(m.entries), m.seq())
		}
	}
	open()
}
