package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"luf/internal/cert"
	"luf/internal/fault"
)

// Log is an append-only journal file with group-commit durability.
//
// Append writes a frame into the OS page cache and returns its
// sequence number; Commit(seq) blocks until at least seq is fsynced.
// While one goroutine is inside fsync, later appenders keep appending
// and their Commits coalesce into the next fsync — the classic group
// commit, so the fsync rate is bounded by the disk, not the request
// rate, and every acknowledged record is durable.
//
// A Log fails sticky: after any write or sync error (real or injected)
// every later Append/Commit reports the same fault.ErrIO-classified
// error. The in-memory state above the log stays valid; callers degrade
// to read-only serving and the next open repairs the torn tail.
type Log struct {
	mu      sync.Mutex // file offset + seq state
	f       *os.File
	path    string
	seq     uint64 // last appended sequence number
	size    int64  // current file size
	failed  error  // sticky first I/O error
	inj     *fault.Injector
	injMu   sync.Mutex
	syncMu  sync.Mutex // serializes fsync batches
	durable uint64     // last sequence number known fsynced (under syncMu+mu)
}

// openLogFile opens (creating if missing) a journal file, decodes it
// with the codec, repairs any torn tail by truncating to the last
// valid record, and returns the log positioned for appends plus the
// decoded prefix. A missing or fully-torn header is rewritten. Mid-file
// corruption aborts with a structured error.
func openLogFile[N comparable, L any](path string, c Codec[N, L], inj *fault.Injector) (*Log, DecodeResult[N, L], error) {
	var res DecodeResult[N, L]
	// A crash mid-Rewrite can strand a staging file; it was never the
	// live journal, so it is simply discarded.
	_ = os.Remove(path + ".tmp")
	image, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, res, fault.IOf("open %s: %v", path, err)
	}
	if inj != nil {
		image = image[:inj.ObserveRead(len(image))]
	}
	res, err = DecodeAll(image, c)
	if err != nil {
		return nil, res, fmt.Errorf("%s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, res, fault.IOf("open %s: %v", path, err)
	}
	l := &Log{f: f, path: path, inj: inj}
	if !res.HasHeader {
		// Fresh file, or a crash tore the very first frame: start over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, res, fault.IOf("truncate %s: %v", path, err)
		}
		res = DecodeResult[N, L]{}
		hdr := appendFrame(nil, encodeHeader(c.GroupID(), 0, 0))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return nil, res, fault.IOf("write header %s: %v", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, res, fault.IOf("sync header %s: %v", path, err)
		}
		l.size = int64(len(hdr))
		res.Header = Header{Version: FormatVersion, GroupID: c.GroupID()}
		res.HasHeader = true
		res.ValidLen = len(hdr)
		return l, res, nil
	}
	if res.TornBytes > 0 {
		if err := f.Truncate(int64(res.ValidLen)); err != nil {
			f.Close()
			return nil, res, fault.IOf("repair-truncate %s at %d: %v", path, res.ValidLen, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, res, fault.IOf("sync after repair %s: %v", path, err)
		}
	}
	l.size = int64(res.ValidLen)
	if n := len(res.Records); n > 0 {
		l.seq = res.Records[n-1].Seq
	}
	l.durable = l.seq
	return l, res, nil
}

// fail records the first I/O error and returns the sticky error.
// Callers hold mu or syncMu.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		if !errors.Is(err, fault.ErrIO) {
			err = fault.IOf("%v", err)
		}
		l.failed = err
	}
	return l.failed
}

// Err returns the sticky I/O error, or nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Seq returns the last appended sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// appendRecordAt writes one assertion frame carrying an explicit,
// caller-assigned sequence number (the store allocates primary-side
// sequence numbers; followers append with the primary's). The write
// lands in the page cache only; call Commit to make it (and everything
// before it) durable.
func appendRecordAt[N comparable, L any](l *Log, c Codec[N, L], seq uint64, e cert.Entry[N, L]) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.seq {
		return l.fail(fault.Invariantf("journal append at sequence %d, file already at %d", seq, l.seq))
	}
	if err := l.writeLocked(appendAssertFrame(nil, c, seq, e), "append"); err != nil {
		return err
	}
	l.seq = seq
	return nil
}

// writeLocked writes one frame at the end of the file through the
// fault injector; what names the record kind in errors. Callers hold
// mu.
func (l *Log) writeLocked(frame []byte, what string) error {
	if l.failed != nil {
		return l.failed
	}
	l.injMu.Lock()
	n, injErr := l.inj.ObserveFrameWrite(len(frame))
	l.injMu.Unlock()
	if _, err := l.f.WriteAt(frame[:n], l.size); err != nil {
		return l.fail(fault.IOf("%s: %v", what, err))
	}
	// An injected tear leaves its prefix on disk, exactly as a crash
	// mid-write would; the log is then failed and the next open repairs
	// the tear.
	l.size += int64(n)
	if injErr != nil {
		return l.fail(injErr)
	}
	return nil
}

// appendDurable writes one frame and fsyncs it (the intent and
// migration logs make every record durable before acting on it).
func (l *Log) appendDurable(frame []byte, what string) error {
	l.mu.Lock()
	err := l.writeLocked(frame, what)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.Sync()
}

// appendFence writes one fence record. Fence records carry no sequence
// number — they mark an epoch change, not an assertion — so they leave
// the assert numbering untouched.
func (l *Log) appendFence(token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(appendFrame(nil, encodeFence(token)), "append fence")
}

// Rewrite atomically replaces the whole journal file with image (used
// by Store.Trim to drop the snapshot-covered prefix; see replaceFile),
// so a crash at any point leaves either the old complete journal or
// the new one. lastSeq is the highest sequence
// number the image accounts for (its trim base plus its records);
// appends resume above it.
func (l *Log) Rewrite(image []byte, lastSeq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if lastSeq < l.seq {
		return l.fail(fault.Invariantf("journal rewrite to sequence %d would lose records up to %d", lastSeq, l.seq))
	}
	f, err := replaceFile(l.path+".tmp", l.path, image, "rewrite")
	if err != nil {
		return l.fail(err)
	}
	old := l.f
	l.f = f
	old.Close()
	l.size = int64(len(image))
	l.seq = lastSeq
	l.durable = lastSeq
	return nil
}

// Commit blocks until sequence number seq is durable (fsynced),
// batching with concurrent committers.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.durable >= seq {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.durable >= seq {
		l.mu.Unlock()
		return nil
	}
	target := l.seq // everything appended so far joins this batch
	l.mu.Unlock()

	l.injMu.Lock()
	injErr := l.inj.ObserveSync()
	l.injMu.Unlock()
	var syncErr error
	if injErr == nil {
		// fsync runs outside mu: appenders keep filling the next batch
		// while this one hits the disk.
		syncErr = l.f.Sync()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if injErr != nil {
		return l.fail(injErr)
	}
	if syncErr != nil {
		return l.fail(fault.IOf("fsync: %v", syncErr))
	}
	l.durable = target
	return nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	return l.Commit(seq)
}

// Close syncs and closes the file. A failed log closes without
// syncing and reports its sticky error.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fault.IOf("close: %v", cerr)
	}
	return err
}
