// Package warehouse is the indexed campaign-result warehouse behind
// cmd/twmd's jobstore: a paged B+-tree index over completed campaign
// cell results, served through an LRU page cache, so dimension-
// filtered range queries ("coverage of S5 across all word widths,
// jobs 9000..10000") are contiguous leaf walks instead of WAL
// replays.
//
// The NDJSON job journals (internal/jobstore) stay the source of
// truth. The warehouse is a derived, disposable view: every entry is
// reproducible from the WALs, Rebuild reproduces the whole file
// deterministically (two rebuilds of the same store are
// byte-identical), and any doubt about the file's integrity — a
// crash mid-ingest, a version mismatch — is answered by throwing it
// away and rebuilding.
//
// On disk the warehouse is a single file of fixed-size pages:
//
//	page 0      meta (magic, page size, tree roots, clean marker)
//	pages 1..n  B+-tree nodes of two trees —
//	            the dimension index, keyed by (test, width, words,
//	            scheme, job, cell) in order-preserving form (Key), and
//	            the primary index, keyed by (job, cell)
//
// Mutations mark the meta page dirty (synced before the first page
// changes) and Checkpoint flushes all pages before writing the clean
// marker back, so Open of a crashed file fails with ErrNeedsRebuild
// instead of serving a torn tree.
package warehouse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"twmarch/internal/campaign"
)

// metaMagic identifies a warehouse index file (and its format
// version): rebuilding is the upgrade path, so any mismatch is
// ErrNeedsRebuild rather than a migration.
const metaMagic = "TWMWHSE1"

// ErrNeedsRebuild reports an index file that cannot be trusted — a
// dirty clean-marker after a crash, a foreign or torn file, a format
// version mismatch. The caller's move is always Rebuild.
var ErrNeedsRebuild = errors.New("warehouse: index needs rebuild from the jobstore WALs")

// Options tunes a warehouse. The zero value means DefaultPageSize
// pages and a DefaultCachePages-page cache.
type Options struct {
	// PageSize is the on-disk page size in bytes.
	PageSize int
	// CachePages caps the LRU page cache, in pages.
	CachePages int
}

func (o Options) pageSize() int {
	if o.PageSize > 0 {
		return o.PageSize
	}
	return DefaultPageSize
}

// Warehouse is one open index file. All methods are safe for
// concurrent use; tree operations are serialized under one mutex (the
// pager's cache has its own lock-cheap path for the page reads
// within).
type Warehouse struct {
	mu   sync.Mutex
	path string
	pg   *Pager
	dim  *tree
	pri  *tree
	jobs int
	// clean mirrors the on-disk meta marker; the first mutation after
	// a checkpoint syncs it false before any page can hit disk.
	clean bool
	// lastJob caches the most recent job looked up by insert, sparing
	// one primary probe per cell of a streaming ingest.
	lastJob      uint64
	lastJobKnown bool
}

// maxEntry bounds one leaf entry (header + key + value) so a split
// always yields two fitting halves.
func maxEntry(pageSize int) int { return (pageSize - nodeHeader) / 4 }

// Open opens an existing index file, or creates an empty one when the
// path does not exist (or is empty). A file that exists but cannot be
// trusted — wrong magic or page size, torn length, or a dirty clean
// marker left by a crash — fails with an error wrapping
// ErrNeedsRebuild.
func Open(path string, opts Options) (*Warehouse, error) {
	pg, err := openPager(path, opts.pageSize(), opts.CachePages)
	if err != nil {
		return nil, err
	}
	if pg.NumPages() == 0 {
		return createLocked(path, pg)
	}
	w := &Warehouse{path: path, pg: pg}
	if err := w.loadMeta(); err != nil {
		pg.Close()
		return nil, err
	}
	if err := w.countJobs(); err != nil {
		pg.Close()
		return nil, fmt.Errorf("%w: %v", ErrNeedsRebuild, err)
	}
	w.publishGauges()
	return w, nil
}

// createLocked initializes a fresh file on an empty pager: meta page,
// then one empty leaf root per tree.
func createLocked(path string, pg *Pager) (*Warehouse, error) {
	w := &Warehouse{path: path, pg: pg}
	if id := pg.Alloc(); id != 0 {
		pg.Close()
		return nil, fmt.Errorf("warehouse: meta page allocated as %d", id)
	}
	var err error
	if w.dim, err = newTree(pg); err != nil {
		pg.Close()
		return nil, err
	}
	if w.pri, err = newTree(pg); err != nil {
		pg.Close()
		return nil, err
	}
	if err := w.checkpointLocked(); err != nil {
		pg.Close()
		return nil, err
	}
	w.publishGauges()
	return w, nil
}

// metaBuf renders the meta page.
func (w *Warehouse) metaBuf(clean bool) []byte {
	buf := make([]byte, w.pg.PageSize())
	copy(buf, metaMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(w.pg.PageSize()))
	binary.BigEndian.PutUint32(buf[12:], w.dim.root)
	binary.BigEndian.PutUint32(buf[16:], w.pri.root)
	binary.BigEndian.PutUint32(buf[20:], w.pg.NumPages())
	if clean {
		buf[24] = 1
	}
	return buf
}

// loadMeta validates the meta page and attaches the trees.
func (w *Warehouse) loadMeta() error {
	buf, err := w.pg.ReadPage(0)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedsRebuild, err)
	}
	if string(buf[:8]) != metaMagic {
		return fmt.Errorf("%w: bad magic", ErrNeedsRebuild)
	}
	if int(binary.BigEndian.Uint32(buf[8:])) != w.pg.PageSize() {
		return fmt.Errorf("%w: page size %d, opened with %d",
			ErrNeedsRebuild, binary.BigEndian.Uint32(buf[8:]), w.pg.PageSize())
	}
	dimRoot := binary.BigEndian.Uint32(buf[12:])
	priRoot := binary.BigEndian.Uint32(buf[16:])
	npages := binary.BigEndian.Uint32(buf[20:])
	if buf[24] != 1 {
		return fmt.Errorf("%w: file was not checkpointed cleanly", ErrNeedsRebuild)
	}
	if npages != w.pg.NumPages() || dimRoot == 0 || dimRoot >= npages || priRoot == 0 || priRoot >= npages {
		return fmt.Errorf("%w: meta references pages outside the file", ErrNeedsRebuild)
	}
	w.dim = &tree{pg: w.pg, root: dimRoot}
	w.pri = &tree{pg: w.pg, root: priRoot}
	w.clean = true
	return nil
}

// countJobs sets the job count by walking the primary tree's leaf
// chain once.
func (w *Warehouse) countJobs() error {
	var last uint64
	var any bool
	return w.pri.scan(nil, func(k, v []byte) bool {
		seq := binary.BigEndian.Uint64(k)
		if !any || seq != last {
			w.jobs++
			any, last = true, seq
		}
		return true
	})
}

// publishGauges refreshes the pages/jobs gauges.
func (w *Warehouse) publishGauges() {
	metPages.Set(float64(w.pg.NumPages()))
	metJobs.Set(float64(w.jobs))
}

// ensureDirtyLocked syncs the meta page's dirty marker to disk before
// the first mutation after a checkpoint, so a crash mid-write is
// always detectable at the next Open. Callers hold w.mu.
func (w *Warehouse) ensureDirtyLocked() error {
	if !w.clean {
		return nil
	}
	if err := w.pg.WriteNow(0, w.metaBuf(false)); err != nil {
		return err
	}
	w.clean = false
	return nil
}

// checkpointLocked flushes dirty pages, then writes the clean meta
// marker. Callers hold w.mu.
func (w *Warehouse) checkpointLocked() error {
	if err := w.pg.Flush(); err != nil {
		return err
	}
	if err := w.pg.WriteNow(0, w.metaBuf(true)); err != nil {
		return err
	}
	w.clean = true
	metCheckpoints.Inc()
	w.publishGauges()
	return nil
}

// Checkpoint makes every ingested record durable and marks the file
// clean: dirty pages are flushed and synced before the meta page's
// clean marker is written back. cmd/twmd checkpoints after each job
// settles.
func (w *Warehouse) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.checkpointLocked()
}

// Close checkpoints and releases the file.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkpointLocked(); err != nil {
		w.pg.Close()
		return err
	}
	return w.pg.Close()
}

// Path returns the index file path.
func (w *Warehouse) Path() string { return w.path }

// CacheStats returns the page cache counters (also exported as
// twm_warehouse_pager_* metrics).
func (w *Warehouse) CacheStats() CacheStats { return w.pg.Stats() }

// NumJobs returns the distinct jobs currently indexed.
func (w *Warehouse) NumJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs
}

// NumPages returns the allocated page count of the index file.
func (w *Warehouse) NumPages() uint32 { return w.pg.NumPages() }

// InsertResult indexes one completed cell result under the job
// sequence. Errored cells are skipped (they carry no dimensions worth
// querying), and re-inserting an already-indexed (job, cell) is a
// no-op — journal replay and settle-time backfill are idempotent.
func (w *Warehouse) InsertResult(job uint64, r campaign.CellResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.insertLocked(job, r)
}

func (w *Warehouse) insertLocked(job uint64, r campaign.CellResult) error {
	if r.Err != "" || r.Index < 0 || r.Width < 0 || r.Words < 0 {
		return nil
	}
	rec := recordOf(job, r)
	dimKey := rec.Key().Encode(nil)
	val := encodeValue(rec)
	if 4+len(dimKey)+len(val) > maxEntry(w.pg.PageSize()) {
		return fmt.Errorf("warehouse: record for job %d cell %d exceeds the %d-byte entry limit",
			job, r.Index, maxEntry(w.pg.PageSize()))
	}
	known := w.lastJobKnown && w.lastJob == job
	if !known {
		// First cell since the last job switch: probe the primary tree
		// for an earlier cell of this job, so the job count stays exact.
		if err := w.pri.scan(priKey(job, 0), func(k, v []byte) bool {
			known = len(k) >= 8 && binary.BigEndian.Uint64(k) == job
			return false
		}); err != nil {
			return err
		}
	}
	if err := w.ensureDirtyLocked(); err != nil {
		return err
	}
	added, err := w.pri.insert(priKey(job, rec.Cell), val)
	if err != nil {
		return err
	}
	if !added {
		return nil
	}
	if _, err := w.dim.insert(dimKey, val); err != nil {
		return err
	}
	metInserts.Inc()
	if !known {
		w.jobs++
		metJobs.Set(float64(w.jobs))
	}
	w.lastJob, w.lastJobKnown = job, true
	return nil
}

// jobEntriesLocked collects the primary entries of one job.
func (w *Warehouse) jobEntriesLocked(job uint64) (cells []uint32, vals [][]byte, err error) {
	err = w.pri.scan(priKey(job, 0), func(k, v []byte) bool {
		if len(k) < 12 || binary.BigEndian.Uint64(k) != job {
			return false
		}
		cells = append(cells, binary.BigEndian.Uint32(k[8:]))
		vals = append(vals, v)
		return true
	})
	return cells, vals, err
}

// RemoveJob deletes every index entry of the job — the eviction path
// — and returns how many cells were dropped.
func (w *Warehouse) RemoveJob(job uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.removeJobLocked(job)
}

func (w *Warehouse) removeJobLocked(job uint64) (int, error) {
	cells, vals, err := w.jobEntriesLocked(job)
	if err != nil {
		return 0, err
	}
	if len(cells) == 0 {
		return 0, nil
	}
	if err := w.ensureDirtyLocked(); err != nil {
		return 0, err
	}
	for i, cell := range cells {
		rec, err := decodeValue(job, cell, vals[i])
		if err != nil {
			return i, fmt.Errorf("warehouse: job %d cell %d: %v", job, cell, err)
		}
		if _, err := w.dim.delete(rec.Key().Encode(nil)); err != nil {
			return i, err
		}
		if _, err := w.pri.delete(priKey(job, cell)); err != nil {
			return i, err
		}
		metDeletes.Inc()
	}
	w.jobs--
	metJobs.Set(float64(w.jobs))
	if w.lastJobKnown && w.lastJob == job {
		w.lastJobKnown = false
	}
	return len(cells), nil
}

// JobRecords returns the indexed records of one job in cell order —
// the reconcile path's view of what the index believes about a job.
func (w *Warehouse) JobRecords(job uint64) ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cells, vals, err := w.jobEntriesLocked(job)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, len(cells))
	for i, cell := range cells {
		rec, err := decodeValue(job, cell, vals[i])
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// IndexedJobs walks the primary tree once and returns the cell count
// per indexed job sequence.
func (w *Warehouse) IndexedJobs() (map[uint64]int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[uint64]int, w.jobs)
	err := w.pri.scan(nil, func(k, v []byte) bool {
		if len(k) >= 8 {
			out[binary.BigEndian.Uint64(k)]++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// remove deletes the index file from disk — used when a rebuild must
// start from nothing.
func remove(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("warehouse: %v", err)
	}
	return nil
}
