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
	"sync"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// dedupModel is a reference model of the store's dedup semantics,
// written without the certificate journal: the records on disk in
// sequence order, and the distinct assertions — same endpoints and
// label — each as its first persisted record holds it. A failed append
// leaves it untouched and kills the log until the next open. snap is
// the coverage of the newest snapshot, and base the trim base of the
// journal file.
type dedupModel struct {
	records    []SeqEntry[string, int64]
	entries    []cert.Entry[string, int64]
	seen       map[[3]string]bool
	dead       bool
	snap, base uint64
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
	return modelImage(m.base, m.records[m.base:])
}

// snapImage renders the snapshot file the model's records must
// produce.
func (m *dedupModel) snapImage() []byte {
	return modelImage(m.snap, m.records[:m.snap])
}

// modelImage renders a header with trim base or coverage covers,
// followed by recs.
func modelImage(covers uint64, recs []SeqEntry[string, int64]) []byte {
	img := appendFrame(nil, encodeHeader(DeltaCodec{}.GroupID(), covers, 0))
	for _, r := range recs {
		p := binary.AppendUvarint([]byte{recAssert}, r.Seq)
		for _, f := range []string{r.Entry.N, r.Entry.M, strconv.FormatInt(r.Entry.Label, 10), r.Entry.Reason} {
			p = binary.AppendUvarint(p, uint64(len(f)))
			p = append(p, f...)
		}
		img = appendFrame(img, p)
	}
	return img
}

// checkMirror compares every read of the store's record mirror with
// the model: RecordAt at every sequence number, RecordsSince from
// every position under several batch limits, and ReadEntries windows
// of several sizes from every position.
func (m *dedupModel) checkMirror(t *testing.T, st *Store[string, int64]) {
	t.Helper()
	for seq := uint64(0); seq <= m.seq()+1; seq++ {
		var want SeqEntry[string, int64]
		wantOK := seq >= 1 && seq <= m.seq()
		if wantOK {
			want = m.records[seq-1]
		}
		if got, ok := st.RecordAt(seq); ok != wantOK || got != want {
			t.Fatalf("RecordAt(%d) = (%v, %v), model (%v, %v)", seq, got, ok, want, wantOK)
		}
	}
	for after := uint64(0); after <= m.seq()+1; after++ {
		for _, max := range []int{0, 1, 7} {
			var want []SeqEntry[string, int64]
			if after < m.seq() {
				want = m.records[after:]
			}
			if max > 0 && len(want) > max {
				want = want[:max]
			}
			if got := st.RecordsSince(after, max); !slices.Equal(got, want) {
				t.Fatalf("RecordsSince(%d, %d) = %v, model %v", after, max, got, want)
			}
		}
	}
	for from := -1; from <= len(m.entries)+1; from++ {
		for _, size := range []int{1, 5, 300} {
			dst := make([]cert.Entry[string, int64], size)
			n := st.ReadEntries(dst, from)
			var want []cert.Entry[string, int64]
			if from >= 0 && from < len(m.entries) {
				want = m.entries[from:min(from+size, len(m.entries))]
			}
			if !slices.Equal(dst[:n], want) {
				t.Fatalf("ReadEntries(len %d, from %d) = %v, model %v", size, from, dst[:n], want)
			}
		}
	}
}

// checkFile compares the store file name with the image the model
// renders for it.
func checkFile(t *testing.T, dir, name string, want []byte) {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("%s on disk (%d bytes) differs from the model's image (%d bytes)", name, len(img), len(want))
	}
}

// TestStoreDedupMatchesModel drives random operation sequences through
// a store and the model side by side: fresh appends, exact duplicates
// under a different reason, assertions a recording union-find put in
// the journal before the store saw them, replicated records that
// duplicate a persisted assertion at a new sequence number (a failover
// boundary), idempotent and divergent re-deliveries, injected disk-full
// appends, snapshots, trims and reopens. After every step Entries
// (order and reasons), Len, LastSeq and every mirror read — RecordAt,
// RecordsSince and ReadEntries — must match the model; after every
// reopen and trim, and at the end, the journal bytes on disk must too,
// and after every snapshot the snapshot file's bytes.
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
		checkFile(t, dir, journalName, m.image())
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
		case r < 18 && len(m.records) > 0: // re-delivery of a held sequence number
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
		case r < 19: // a snapshot, then possibly a trim to it
			if err := st.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			m.snap = m.seq()
			checkFile(t, dir, snapshotName, m.snapImage())
			if rng.Intn(2) == 0 {
				break
			}
			switch err := st.Trim(); {
			case m.dead && m.snap > 0:
				if !errors.Is(err, fault.ErrIO) {
					t.Fatalf("trim on a failed log: err = %v, want sticky ErrIO", err)
				}
			case err != nil:
				t.Fatalf("trim: %v", err)
			case m.snap > 0:
				m.base = m.snap
				checkFile(t, dir, journalName, m.image())
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
		m.checkMirror(t, st)
	}
	open()
}

// TestStoreConcurrentMirrorMatchesRecovery runs appends — fresh,
// duplicates under other reasons, assertions a recording union-find
// saw first under its own reason — concurrently with every mirror
// read and with snapshots. Afterwards the mirror must hold exactly the
// records the journal file holds, reasons included (snapshots are
// written from the mirror, so the journal file is the reference), and
// recovery must rebuild the same records and Entries.
func TestStoreConcurrentMirrorMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range perWriter {
				// Writers share nodes, and labels are potential
				// differences, so writes overlap without conflicting.
				a, b := rng.Intn(40), rng.Intn(40)
				e := cert.Entry[string, int64]{
					N: "n" + strconv.Itoa(a), M: "n" + strconv.Itoa(b), Label: int64(b - a),
					Reason: fmt.Sprintf("w%d-%d", w, i),
				}
				if rng.Intn(3) == 0 {
					rec.Journal.Record(e.N, e.M, e.Label, e.Reason+"-uf")
				}
				if _, err := st.Append(e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers := sync.WaitGroup{}
	readers.Add(2)
	go func() {
		defer readers.Done()
		dst := make([]cert.Entry[string, int64], 7)
		for {
			select {
			case <-stop:
				return
			default:
			}
			last := st.LastSeq()
			st.RecordsSince(last/2, 5)
			st.RecordAt(last)
			st.ReadEntries(dst, st.Len()/2)
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		st.Close()
		return
	}
	records, entries := st.RecordsSince(0, 0), st.Entries()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	file, err := DecodeAll(img, DeltaCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Records) != len(records) {
		t.Fatalf("mirror holds %d records, the journal file %d", len(records), len(file.Records))
	}
	for i, r := range file.Records {
		if records[i] != (SeqEntry[string, int64]{Seq: r.Seq, Entry: r.Entry}) {
			t.Fatalf("mirror record %d = %v, journal file holds %v", i, records[i], r)
		}
	}
	st, _, err = Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.RecordsSince(0, 0); !slices.Equal(got, records) {
		t.Fatalf("recovered records differ from the mirror before the restart:\n got %v\nwant %v", got, records)
	}
	if got := st.Entries(); !slices.Equal(got, entries) {
		t.Fatalf("recovered Entries differ from those before the restart:\n got %v\nwant %v", got, entries)
	}
}
