package wal

import (
	"errors"
	"os"
	"path/filepath"

	"luf/internal/fault"
)

// snapshotName and journalName are the fixed file names inside a store
// directory; snapshotTmp is the atomic-rename staging name.
const (
	journalName  = "journal.wal"
	snapshotName = "snapshot.wal"
	snapshotTmp  = "snapshot.tmp"
)

// writeSnapshot atomically writes a snapshot file: the store's records
// with their *original* journal sequence numbers, in one image with a
// header whose CoversSeq records the journal sequence number the
// snapshot subsumes and whose Fence persists the fencing token in
// force. Preserving the original numbering keeps one global sequence
// identity per assertion across snapshots, trims and replication. The
// image is staged under a temporary name, fsynced, renamed into place,
// and the directory fsynced — so at every instant the store holds
// either the old complete snapshot or the new one, never a partial
// file.
func writeSnapshot[N comparable, L any](dir string, c Codec[N, L], recs []SeqEntry[N, L], coversSeq, fence uint64) error {
	image := appendFrame(nil, encodeHeader(c.GroupID(), coversSeq, fence))
	for _, r := range recs {
		image = appendAssertFrame(image, c, r.Seq, r.Entry)
	}
	f, err := replaceFile(filepath.Join(dir, snapshotTmp), filepath.Join(dir, snapshotName), image, "snapshot")
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fault.IOf("snapshot: close %s: %v", f.Name(), err)
	}
	return nil
}

// replaceFile atomically replaces path with image: the image is staged
// in tmp, fsynced, renamed over path, and the directory fsynced, so a
// crash at any point leaves either the old complete file or the new
// one. It returns the new file, open for writing; op prefixes errors.
func replaceFile(tmp, path string, image []byte, op string) (*os.File, error) {
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fault.IOf("%s: create %s: %v", op, tmp, err)
	}
	if _, err := f.Write(image); err != nil {
		f.Close()
		return nil, fault.IOf("%s: write %s: %v", op, tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fault.IOf("%s: sync %s: %v", op, tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return nil, fault.IOf("%s: rename %s: %v", op, path, err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		// Persist the rename itself; ignore fsync errors on platforms
		// that reject directory syncs.
		_ = d.Sync()
		d.Close()
	}
	return f, nil
}

// readSnapshot loads and decodes the snapshot file, if any. Because
// snapshots are written atomically, any damage — torn bytes included —
// is real corruption and reported as a structured error, unlike the
// live journal's repairable tail.
func readSnapshot[N comparable, L any](dir string, c Codec[N, L], inj *fault.Injector) (DecodeResult[N, L], bool, error) {
	var res DecodeResult[N, L]
	path := filepath.Join(dir, snapshotName)
	image, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return res, false, nil
	}
	if err != nil {
		return res, false, fault.IOf("snapshot: read %s: %v", path, err)
	}
	if inj != nil {
		image = image[:inj.ObserveRead(len(image))]
	}
	res, err = DecodeAll(image, c)
	if err != nil {
		return res, false, err
	}
	if !res.HasHeader || res.TornBytes > 0 {
		return res, false, fault.IOf("snapshot %s is damaged (%d valid bytes, %d torn): snapshots are written atomically, so this is corruption, not a crash tail",
			path, res.ValidLen, res.TornBytes)
	}
	return res, true, nil
}
