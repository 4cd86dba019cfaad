package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// MaxTextBytes bounds text column values so that every row fits a
// B-Tree entry after encoding.
const MaxTextBytes = 512

// coerceRow validates and coerces a row against the table schema:
// ints widen to floats, anything else must match or be NULL.
func coerceRow(schema sqltypes.Schema, row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != schema.Len() {
		return nil, fmt.Errorf("engine: row has %d values, table has %d columns", len(row), schema.Len())
	}
	out := make(sqltypes.Row, len(row))
	for i, v := range row {
		col := schema.Columns[i]
		switch {
		case v.IsNull():
			out[i] = v
		case v.T == col.Type:
			if v.T == sqltypes.Text && len(v.S) > MaxTextBytes {
				return nil, fmt.Errorf("engine: value for %s exceeds %d bytes", col.Name, MaxTextBytes)
			}
			out[i] = v
		case col.Type == sqltypes.Float && v.T == sqltypes.Int:
			out[i] = sqltypes.NewFloat(float64(v.I))
		case col.Type == sqltypes.Int && v.T == sqltypes.Float && v.F == float64(int64(v.F)):
			out[i] = sqltypes.NewInt(int64(v.F))
		default:
			return nil, fmt.Errorf("engine: type mismatch for column %s: %s value into %s column",
				col.Name, v.T, col.Type)
		}
	}
	return out, nil
}

// keyFor builds the order-preserving key of the given columns.
func keyFor(schema sqltypes.Schema, row sqltypes.Row, cols []string) ([]byte, error) {
	var key []byte
	for _, c := range cols {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("engine: key column %q not in schema", c)
		}
		key = sqltypes.EncodeKey(key, row[idx])
	}
	return key, nil
}

// tidSuffix appends the TID to an index key so duplicate key values
// stay unique. The TID is encoded with EncodeKey so that its first
// byte can never be 0xFF (range upper bounds rely on that).
func tidSuffix(key []byte, tid storage.TID) []byte {
	return sqltypes.EncodeKey(key, sqltypes.NewInt(int64(tid)))
}

// tidSuffixLen is the encoded size of the TID suffix tidSuffix appends:
// EncodeKey of an Int is always tag+float64+tag+int64 = 18 bytes.
const tidSuffixLen = 18

func tidBytes(tid storage.TID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(tid))
	return b[:]
}

func tidFromBytes(b []byte) storage.TID {
	return storage.TID(binary.BigEndian.Uint64(b))
}

// storageKey returns the columns the BTREE primary structure clusters
// on: the explicit storage key if set, else the primary key.
func storageKey(meta *catalog.Table) []string {
	if len(meta.StorageKey) > 0 {
		return meta.StorageKey
	}
	return meta.PrimaryKey
}

// attachWalTxn points every file of the table at the WAL transaction
// that is about to mutate it, so Page.WillModify captures before-images
// for t. Returns the detach func; callers defer it for the statement's
// duration. The caller holds the table's statement write gate (or a
// table X lock), which is what guarantees a single non-nil attachment
// at a time. A nil t attaches nothing (unlogged paths: DDL rebuilds
// behind the exclusive gate).
func (db *DB) attachWalTxn(h *tableHandle, t *storage.WalTxn) func() {
	if t == nil {
		return func() {}
	}
	files := make([]*storage.File, 0, 2+len(h.indexes))
	files = append(files, h.heap.File())
	if h.primary != nil {
		files = append(files, h.primary.File())
	}
	for _, ix := range h.indexes {
		files = append(files, ix.File())
	}
	for _, f := range files {
		f.SetWALTxn(t)
		f.SetProf(t.Prof())
	}
	return func() {
		for _, f := range files {
			f.SetWALTxn(nil)
			f.SetProf(nil)
		}
	}
}

// checkUnique enforces unique secondary indexes against current
// reality, not a snapshot: the caller holds the table's statement write
// gate, so every candidate version's header is stable while it is
// classified. self is the inserting transaction id.
func (db *DB) checkUnique(h *tableHandle, row sqltypes.Row, self uint64) error {
	for _, ix := range db.cat.TableIndexes(h.meta.Name, false) {
		if !ix.Unique {
			continue
		}
		bt := h.indexes[strings.ToLower(ix.Name)]
		if bt == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return err
		}
		// Entries are key || TID suffix, and a suffix never starts with
		// 0xFF, so [key, key||0xFF) holds exactly the entries of key.
		it := bt.Range(key, append(key, 0xFF), nil)
		for it.Next() {
			tid := tidFromBytes(it.Value())
			rec, ok, gerr := h.heap.Get(tid)
			if gerr != nil {
				return gerr
			}
			if !ok || len(rec) < storage.VersionHeaderSize {
				continue // vacuumed: dangling entry awaiting cleanup
			}
			hdr := storage.ReadVersionHeader(rec)
			if hdr.Xmin == self {
				if hdr.Xmax == self {
					continue // this transaction already superseded its own version
				}
				return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
			}
			switch db.txns.stateOf(hdr.Xmin) {
			case txnAborted:
				continue // dead version awaiting vacuum
			case txnInflight:
				return db.conflictErr("unique key of index %s contested by in-flight transaction %d", ix.Name, hdr.Xmin)
			}
			// Creator committed; the deleter decides.
			switch {
			case hdr.Xmax == 0:
				return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
			case hdr.Xmax == self:
				continue // deleted by this transaction
			default:
				switch db.txns.stateOf(hdr.Xmax) {
				case txnAborted:
					return fmt.Errorf("engine: duplicate key for unique index %s", ix.Name)
				case txnInflight:
					return db.conflictErr("unique key of index %s pending delete by transaction %d", ix.Name, hdr.Xmax)
				}
				// Committed delete: the key is free.
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// insertVersion inserts a new record version (the MVCC header vh plus
// the encoded row), maintaining the primary structure and all secondary
// indexes — every heap version gets index entries; visibility filtering
// happens at scan time and vacuum removes entries with the versions.
// The caller holds the table's statement write gate (or a table X
// lock).
func (db *DB) insertVersion(h *tableHandle, row sqltypes.Row, vh storage.VersionHeader, self uint64) (storage.TID, error) {
	if err := db.checkUnique(h, row, self); err != nil {
		return 0, err
	}
	var pkey []byte
	if h.primary != nil {
		var err error
		pkey, err = keyFor(h.meta.Schema, row, storageKey(h.meta))
		if err != nil {
			return 0, err
		}
	}
	rec := make([]byte, storage.VersionHeaderSize)
	storage.PutVersionHeader(rec, vh)
	rec = sqltypes.EncodeRow(rec, row)
	tid, err := h.heap.Insert(rec)
	if err != nil {
		return 0, err
	}
	if h.primary != nil {
		if err := h.primary.Put(tidSuffix(pkey, tid), tidBytes(tid)); err != nil {
			return 0, err
		}
	}
	for name, bt := range h.indexes {
		ix := db.cat.Index(name)
		if ix == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return 0, err
		}
		if err := bt.Put(tidSuffix(key, tid), tidBytes(tid)); err != nil {
			return 0, err
		}
	}
	logToSideLog(h, false, tid, row)
	return tid, nil
}

// dropVersionIndexEntries removes the index entries pointing at one
// reclaimed version (vacuum's half of index maintenance).
func (db *DB) dropVersionIndexEntries(h *tableHandle, tid storage.TID, row sqltypes.Row) error {
	if h.primary != nil {
		pkey, err := keyFor(h.meta.Schema, row, storageKey(h.meta))
		if err != nil {
			return err
		}
		if _, err := h.primary.Delete(tidSuffix(pkey, tid)); err != nil {
			return err
		}
	}
	for name, bt := range h.indexes {
		ix := db.cat.Index(name)
		if ix == nil {
			continue
		}
		key, err := keyFor(h.meta.Schema, row, ix.Columns)
		if err != nil {
			return err
		}
		if _, err := bt.Delete(tidSuffix(key, tid)); err != nil {
			return err
		}
	}
	logToSideLog(h, true, tid, row)
	return nil
}

// BulkInsert loads rows into a table efficiently, bypassing SQL but
// maintaining structures and uniqueness like the normal path. Rows are
// stamped with the frozen transaction id — committed forever — so the
// load is visible even to snapshots taken before it finished (the bulk
// path trades that anomaly for not holding an id open; it runs under a
// table X lock, so no concurrent writer interleaves). Used by the
// workload generator.
func (db *DB) BulkInsert(table string, rows []sqltypes.Row) error {
	h := db.handle(table)
	if h == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	// The WAL transaction (gate read side) is opened before the table
	// lock — same order as Session.Exec.
	wtx := db.wal.Begin()
	session := db.nextSession.Add(1)
	if err := db.locks.Acquire(session, strings.ToLower(table), lockX); err != nil {
		wtx.Commit(false)
		return err
	}
	defer db.locks.ReleaseAll(session)
	detach := db.attachWalTxn(h, wtx)
	var err error
	var inserted int64
	for _, row := range rows {
		var coerced sqltypes.Row
		if coerced, err = coerceRow(h.meta.Schema, row); err != nil {
			break
		}
		if _, err = db.insertVersion(h, coerced, storage.VersionHeader{Xmin: frozenTxnID}, frozenTxnID); err != nil {
			break
		}
		inserted++
	}
	detach()
	// Finish (and on success wait out) the WAL transaction before the
	// deferred lock release.
	if ferr := wtx.Commit(err == nil); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	h.heap.AdjustRows(inserted)
	db.syncMeta(h)
	return nil
}

// heapScan is the engine's table scan, serial or one morsel: it visits
// heap pages [page, bound) through Heap.ScanPage until it has batched
// BatchSize visible rows (the last page may overshoot) or reaches the
// bound. Versions are filtered through the statement's snapshot and
// decoded into a reused value arena, so a delivered batch holds no pin
// and no latch — the executor may probe the same heap while it holds
// one. The arena is recycled on the next call, which is the executor's
// batch ownership contract.
type heapScan struct {
	heap   *storage.Heap
	snap   *snapshot
	prof   *storage.WaitProf // wait attribution for flagged statements
	page   uint32
	bound  uint32 // exclusive page bound; the heap's end caps it
	arena  []sqltypes.Value
	bounds []int // bounds[i]..bounds[i+1] delimit row i in arena
}

func (r *heapScan) NextBatch(b *executor.Batch) (bool, error) {
	b.Reset()
	r.arena = r.arena[:0]
	r.bounds = append(r.bounds[:0], 0)
	end := min(r.bound, r.heap.Pages())
	for ; r.page < end && len(r.bounds) <= executor.BatchSize; r.page++ {
		if err := r.heap.ScanPage(r.page, r.prof, r.visit); err != nil {
			return false, err
		}
	}
	// Carve the row slices only after every decode: AppendDecodedRow may
	// move the arena while growing it.
	for i := 0; i+1 < len(r.bounds); i++ {
		lo, hi := r.bounds[i], r.bounds[i+1]
		b.Rows = append(b.Rows, sqltypes.Row(r.arena[lo:hi:hi]))
	}
	return len(b.Rows) > 0, nil
}

// visit decodes one record version if the snapshot sees it.
func (r *heapScan) visit(_ storage.TID, rec []byte) error {
	if len(rec) < storage.VersionHeaderSize {
		return fmt.Errorf("engine: unversioned heap record")
	}
	if !r.snap.visible(storage.ReadVersionHeader(rec)) {
		return nil
	}
	var err error
	if r.arena, err = sqltypes.AppendDecodedRow(r.arena, storage.VersionPayload(rec)); err != nil {
		return err
	}
	r.bounds = append(r.bounds, len(r.arena))
	return nil
}

func (r *heapScan) Close() error { return nil }

// btreeFetchIter is the engine's executor.IndexCursor: it walks a
// B-Tree key range whose values are TIDs and fetches the base rows from
// the heap, filtering versions through the statement's snapshot. A
// dangling entry (vacuum reclaimed the version under a buffered
// iterator) is skipped, as is a reused slot holding a version the
// snapshot cannot see — any such reuse happened after the snapshot, so
// visibility filters it out. The B-tree iterator is created on the
// first Range and re-targeted, buffers and all, by every later one.
type btreeFetchIter struct {
	bt     *storage.BTree
	it     *storage.Iterator
	heap   *storage.Heap
	snap   *snapshot
	prof   *storage.WaitProf
	recBuf []byte // reused heap record buffer; decoded rows never alias it
}

// Range implements executor.IndexCursor.
func (r *btreeFetchIter) Range(lo, hi []byte) {
	if r.it == nil {
		r.it = r.bt.Range(lo, hi, r.prof)
		return
	}
	r.it.Reset(lo, hi)
}

func (r *btreeFetchIter) Next() (sqltypes.Row, bool, error) {
	if r.it == nil {
		return nil, false, nil
	}
	for r.it.Next() {
		tid := tidFromBytes(r.it.Value())
		rec, ok, err := r.heap.GetInto(r.recBuf, tid, r.prof)
		r.recBuf = rec
		if err != nil {
			return nil, false, err
		}
		if !ok || len(rec) < storage.VersionHeaderSize {
			continue // reclaimed under the scan
		}
		if !r.snap.visible(storage.ReadVersionHeader(rec)) {
			continue
		}
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec))
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	return nil, false, r.it.Err()
}

func (r *btreeFetchIter) Close() error { return nil }

// ScanTable implements executor.Storage: base tables scan through
// heapScan; virtual table snapshots are already materialized.
func (s executorStorage) ScanTable(name string) (executor.RowBatchIter, error) {
	if vt := s.db.virtualTable(name); vt != nil {
		return &executor.SliceRowIter{Rows: vt.provider()}, nil
	}
	h := s.db.handle(name)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return &heapScan{heap: h.heap, snap: s.snapshot(), prof: s.prof, bound: math.MaxUint32}, nil
}

// morselSource implements executor.MorselSource over one heap table:
// page-count enumeration plus independent page-range scans, all
// filtered through the same captured statement snapshot. Each worker's
// heapScan owns its decode arena and pins one page at a time.
type morselSource struct {
	h    *tableHandle
	snap *snapshot
	prof *storage.WaitProf // all-atomic, safe to share across workers
}

func (m *morselSource) Pages() uint32 { return m.h.heap.Pages() }

func (m *morselSource) ScanRange(lo, hi uint32) (executor.RowBatchIter, error) {
	return &heapScan{heap: m.h.heap, snap: m.snap, prof: m.prof, page: lo, bound: hi}, nil
}

// MorselTable implements executor.MorselStorage. Virtual tables are
// already-materialized snapshots — nothing to partition, so they
// report ok=false and stay on the serial path.
func (s executorStorage) MorselTable(name string) (executor.MorselSource, bool, error) {
	if vt := s.db.virtualTable(name); vt != nil {
		return nil, false, nil
	}
	h := s.db.handle(name)
	if h == nil {
		return nil, false, fmt.Errorf("engine: unknown table %q", name)
	}
	return &morselSource{h: h, snap: s.snapshot(), prof: s.prof}, true, nil
}

// IndexProbe implements executor.Storage. The primary B-tree (index
// "") is probed like any secondary index: both map keys to TIDs.
func (s executorStorage) IndexProbe(table, index string) (executor.IndexCursor, error) {
	h := s.db.handle(table)
	if h == nil {
		return nil, fmt.Errorf("engine: unknown table %q", table)
	}
	var bt *storage.BTree
	if index == "" {
		if bt = h.primary; bt == nil {
			return nil, fmt.Errorf("engine: table %s has no primary B-Tree", table)
		}
	} else {
		ix := s.db.cat.Index(index)
		if ix == nil {
			return nil, fmt.Errorf("engine: unknown index %q", index)
		}
		if ix.Virtual {
			return nil, fmt.Errorf("engine: virtual index %s cannot be executed (what-if only)", index)
		}
		if bt = h.indexes[strings.ToLower(index)]; bt == nil {
			return nil, fmt.Errorf("engine: index %s has no storage", index)
		}
	}
	return &btreeFetchIter{bt: bt, heap: h.heap, snap: s.snapshot(), prof: s.prof}, nil
}

// scanAll collects every committed-visible row of a table with its TID
// (DDL rebuild helper). It reads against current reality: callers hold
// a table X lock, so no writer is in flight on the table and reality is
// final for it.
func (db *DB) scanAll(h *tableHandle) ([]storage.TID, []sqltypes.Row, error) {
	sn := db.txns.realitySnapshot()
	var tids []storage.TID
	var rows []sqltypes.Row
	it := h.heap.Iter()
	for {
		tid, rec, ok, err := it.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return tids, rows, nil
		}
		if len(rec) < storage.VersionHeaderSize {
			return nil, nil, fmt.Errorf("engine: unversioned record %v in %s", tid, h.meta.Name)
		}
		if !sn.visible(storage.ReadVersionHeader(rec)) {
			continue
		}
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec))
		if err != nil {
			return nil, nil, err
		}
		tids = append(tids, tid)
		rows = append(rows, row)
	}
}

// rebuildTable rewrites the heap compactly (ordered by key for BTREE)
// and rebuilds the primary structure and every secondary index. Used
// by MODIFY.
func (db *DB) rebuildTable(h *tableHandle, structure catalog.Structure, keyCols []string) error {
	_, rows, err := db.scanAll(h)
	if err != nil {
		return err
	}
	if structure == catalog.BTree {
		if len(keyCols) == 0 {
			return fmt.Errorf("engine: MODIFY TO BTREE needs key columns or a primary key on %s", h.meta.Name)
		}
		// Cluster rows by key order.
		keys := make([][]byte, len(rows))
		for i, r := range rows {
			if keys[i], err = keyFor(h.meta.Schema, r, keyCols); err != nil {
				return err
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return string(keys[i]) < string(keys[j]) })
	}

	if err := h.heap.Truncate(); err != nil {
		return err
	}
	// Reset or drop the primary structure file.
	if h.primary != nil {
		if err := h.primary.File().Remove(); err != nil {
			return err
		}
		h.primary = nil
	}
	if structure == catalog.BTree {
		pf, err := db.newFile(db.primaryPath(h.meta.Name))
		if err != nil {
			return err
		}
		if h.primary, err = storage.CreateBTree(pf); err != nil {
			return err
		}
	} else {
		// Make sure a stale primary file is gone.
		_ = removeIfExists(db.primaryPath(h.meta.Name))
	}
	// Reset secondary index files.
	for name, bt := range h.indexes {
		if err := bt.File().Remove(); err != nil {
			return err
		}
		xf, err := db.newFile(db.indexPath(name))
		if err != nil {
			return err
		}
		if h.indexes[name], err = storage.CreateBTree(xf); err != nil {
			return err
		}
	}

	h.meta.Structure = structure
	if structure == catalog.BTree {
		h.meta.StorageKey = keyCols
	} else {
		h.meta.StorageKey = nil
	}
	// Rebuilt rows are frozen: the rebuild keeps only committed-visible
	// versions, so their history is irrelevant and the compacted heap
	// starts with clean single-version chains.
	for _, row := range rows {
		if _, err := db.insertVersion(h, row, storage.VersionHeader{Xmin: frozenTxnID}, frozenTxnID); err != nil {
			return err
		}
	}
	h.heap.ResetRows(int64(len(rows)))
	// After a rebuild every page is a main page: no overflow.
	h.heap.SetMainPages(h.heap.Pages())
	db.syncMeta(h)
	return db.cat.Save()
}

func removeIfExists(path string) error {
	err := os.Remove(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
