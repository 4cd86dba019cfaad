// Package walfault provides a fault-injecting storage.WALFile for
// crash-simulation tests: it can drop every byte past a chosen offset
// (simulating a crash before those bytes reached the disk), tear the
// write that crosses the offset by appending garbage, or fail fsync.
// Inject it through engine.Config.WALOpen / storage.WALOptions.OpenFile.
package walfault

import (
	"math/rand"
	"os"
	"sync"

	"repro/internal/storage"
)

// File wraps an *os.File as a storage.WALFile with injectable faults.
type File struct {
	mu       sync.Mutex
	f        *os.File
	written  int64 // bytes accepted so far (including dropped ones)
	limit    int64 // -1: no limit; else drop bytes past this offset
	torn     bool  // replace the cut with garbage instead of a clean stop
	failSync error
	syncs    int64
	rng      *rand.Rand
}

// Open opens path in append mode, wrapped for fault injection.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, written: st.Size(), limit: -1, rng: rand.New(rand.NewSource(1))}, nil
}

// Opener adapts Open to the storage.WALOptions.OpenFile seam, handing
// each opened file to register (so the test can arm faults on it).
func Opener(register func(*File)) func(string) (storage.WALFile, error) {
	return func(path string) (storage.WALFile, error) {
		f, err := Open(path)
		if err != nil {
			return nil, err
		}
		if register != nil {
			register(f)
		}
		return f, nil
	}
}

// SetLimit arms the fault: bytes at file offset >= limit are silently
// dropped, as if the process died before they hit the platter.
func (w *File) SetLimit(limit int64) {
	w.mu.Lock()
	w.limit = limit
	w.mu.Unlock()
}

// SetTorn makes the cut at the limit dirty: the truncated write's tail
// is replaced with pseudo-random garbage up to the attempted length,
// simulating a torn sector.
func (w *File) SetTorn(torn bool) {
	w.mu.Lock()
	w.torn = torn
	w.mu.Unlock()
}

// FailSync makes every subsequent Sync return err (nil re-arms success).
func (w *File) FailSync(err error) {
	w.mu.Lock()
	w.failSync = err
	w.mu.Unlock()
}

// Syncs returns the number of successful Sync calls.
func (w *File) Syncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Written returns the logical bytes appended so far (dropped or not).
func (w *File) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Write appends p, applying the armed truncation/torn-write fault. It
// always reports full success to the caller — the process believes the
// write landed, exactly like a crash after write() but before fsync.
func (w *File) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.written
	w.written += int64(len(p))
	if w.limit < 0 || start+int64(len(p)) <= w.limit {
		if _, err := w.f.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	keep := w.limit - start
	if keep < 0 {
		keep = 0
	}
	out := p[:keep]
	if w.torn {
		garbage := make([]byte, len(p)-int(keep))
		w.rng.Read(garbage)
		out = append(append([]byte{}, out...), garbage...)
	}
	if len(out) > 0 {
		if _, err := w.f.Write(out); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Sync fsyncs the backing file unless armed to fail.
func (w *File) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failSync != nil {
		return w.failSync
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs++
	return nil
}

// Close closes the backing file.
func (w *File) Close() error { return w.f.Close() }
