// Package jobstore is the durable job journal behind cmd/twmd's
// -datadir: one directory per submitted campaign holding the spec, a
// write-ahead log of completed cell results, and a terminal-state
// marker. A restarted server recovers every journaled job — terminal
// jobs rebuild their aggregate from the WAL, interrupted jobs replay
// the finished cells and re-simulate only the remainder (cell results
// are pure functions of (spec, cell), so the recovered aggregate is
// byte-identical to an uninterrupted run).
//
// Layout under the store root:
//
//	<id>/spec.json       the submitted campaign.Spec (atomic rename)
//	<id>/wal.ndjson      one compact JSON CellResult per line, append-only
//	<id>/state.json      terminal marker {state, error} (atomic rename)
//	<id>/trace           the job span's W3C traceparent (atomic rename),
//	                     so a restarted server resumes the same trace
//
// The WAL is written one line per syscall without fsync: a torn tail
// from a crash is detected on replay and dropped, costing only the
// re-simulation of that cell.
package jobstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"twmarch/internal/campaign"
)

// Store is a journal directory. Methods are safe for concurrent use;
// per-job serialization is the Journal's.
type Store struct {
	dir string
}

// Open creates the store root if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// IDs returns every job directory name in the store, including ones
// Recover would skip as unrecoverable (e.g. a crash-orphaned directory
// without a spec). Id allocators must steer clear of all of them — a
// reused id would collide with the leftover directory and silently run
// unjournaled.
func (s *Store) IDs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// validID rejects ids that could escape the store root. Server job ids
// are "c<seq>", but the store guards its own invariants.
func validID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	return nil
}

// Create journals a new job: it writes the spec and opens the cell WAL
// for appending. It fails if the job already exists.
func (s *Store) Create(id string, spec campaign.Spec) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobstore: encode spec: %v", err)
	}
	if err := atomicWrite(filepath.Join(dir, "spec.json"), append(raw, '\n')); err != nil {
		return nil, err
	}
	return openWAL(dir)
}

// Reopen returns the journal of an existing job, appending to its WAL
// — the recovery path for a job resumed after a restart. A torn tail
// left by a crash is truncated away first: appending after the
// fragment would merge two records into one malformed line and make
// everything journaled afterwards unrecoverable on later restarts.
func (s *Store) Reopen(id string) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.dir, id)
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	wal := filepath.Join(dir, "wal.ndjson")
	if valid, size, err := scanWAL(wal, nil); err == nil && valid < size {
		if err := os.Truncate(wal, valid); err != nil {
			return nil, fmt.Errorf("jobstore: truncate torn tail: %v", err)
		}
		metTornRepairs.Inc()
	}
	return openWAL(dir)
}

// Remove deletes a job's journal — the eviction path.
func (s *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(s.dir, id))
}

// Job is one recovered journal entry.
type Job struct {
	// ID is the job's directory name (the server's job id).
	ID string
	// Spec is the submitted campaign spec.
	Spec campaign.Spec
	// Done holds the journaled cell results, in WAL (completion) order.
	Done []campaign.CellResult
	// State is the terminal marker ("done", "failed", "canceled"), or
	// empty for a job that was interrupted mid-run and should resume.
	State string
	// Err is the terminal marker's error message.
	Err string
	// TraceParent is the job span's journaled W3C traceparent, empty
	// when the job predates tracing or the file was lost.
	TraceParent string
}

// terminalMarker is the state.json schema.
type terminalMarker struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Load reads one journaled job — spec, WAL replay, terminal marker —
// without touching the rest of the store. It fails when the spec is
// missing or unreadable (a crash between Mkdir and the spec rename
// leaves nothing recoverable); a malformed or torn WAL tail drops the
// affected line and everything after it. Recover is the whole-store
// sweep built on it; index consumers (the result warehouse's rebuild
// and reconcile paths) use Load directly so repairing one job's index
// entries never re-reads every journal.
func (s *Store) Load(id string) (Job, error) {
	if err := validID(id); err != nil {
		return Job{}, err
	}
	dir := filepath.Join(s.dir, id)
	raw, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return Job{}, fmt.Errorf("jobstore: %v", err)
	}
	var spec campaign.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return Job{}, fmt.Errorf("jobstore: %s: parse spec: %v", id, err)
	}
	j := Job{ID: id, Spec: spec, Done: readWAL(filepath.Join(dir, "wal.ndjson"))}
	if raw, err := os.ReadFile(filepath.Join(dir, "state.json")); err == nil {
		var m terminalMarker
		if err := json.Unmarshal(raw, &m); err == nil {
			j.State, j.Err = m.State, m.Error
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "trace")); err == nil {
		j.TraceParent = strings.TrimSpace(string(raw))
	}
	return j, nil
}

// WriteTrace journals the job span's traceparent so recovery can
// resume the job on the same trace. Written once at submission;
// atomic like the other markers.
func (s *Store) WriteTrace(id, traceparent string) error {
	if err := validID(id); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, id, "trace"), []byte(traceparent+"\n"))
}

// Recover loads every journaled job, sorted by id (numeric-suffix
// aware: c2 before c10). Directories without a readable spec are
// skipped — a crash between Mkdir and the spec rename leaves nothing
// recoverable. A malformed or torn WAL tail drops the affected line
// and everything after it; those cells simply re-simulate.
func (s *Store) Recover() ([]Job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	var jobs []Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, err := s.Load(e.Name())
		if err != nil {
			continue
		}
		metRecoveredJobs.Inc()
		metRecoveredCells.Add(float64(len(j.Done)))
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if len(jobs[a].ID) != len(jobs[b].ID) {
			return len(jobs[a].ID) < len(jobs[b].ID)
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs, nil
}

// readWAL parses cell results up to the first torn or malformed line.
// The WAL is append-only, so everything before a torn tail is intact.
func readWAL(path string) []campaign.CellResult {
	var out []campaign.CellResult
	scanWAL(path, func(r campaign.CellResult) { out = append(out, r) })
	return out
}

// scanWAL walks the WAL's valid prefix — complete, newline-terminated
// lines that unmarshal — calling visit (when non-nil) per record, and
// returns the prefix length in bytes alongside the file size. A line
// without its terminating newline is a torn tail even if it happens to
// parse: appending after it would corrupt the record boundary.
func scanWAL(path string, visit func(campaign.CellResult)) (valid, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	rd := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return valid, size, nil // EOF: any unterminated remainder is torn
		}
		var r campaign.CellResult
		if json.Unmarshal(line, &r) != nil {
			return valid, size, nil
		}
		valid += int64(len(line))
		if visit != nil {
			visit(r)
		}
	}
}

// Journal is one job's open write-ahead log. It implements
// campaign.Sink: plugged into Engine.Stream it journals every
// completed cell as it lands. Append errors don't stop the campaign —
// the first one is retained for Err and later results are dropped, so
// a full disk degrades to re-simulation after the next restart rather
// than a failed job.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	dir string
	err error
}

func openWAL(dir string) (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	return &Journal{f: f, dir: dir}, nil
}

// Emit appends one cell result to the WAL (campaign.Sink).
func (j *Journal) Emit(r campaign.CellResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		j.err = fmt.Errorf("jobstore: encode cell %d: %v", r.Index, err)
		metAppendErrors.Inc()
		return
	}
	// One write syscall per line keeps torn writes to the tail, which
	// replay detects and drops.
	if _, err := j.f.Write(append(raw, '\n')); err != nil {
		j.err = fmt.Errorf("jobstore: append cell %d: %v", r.Index, err)
		metAppendErrors.Inc()
		return
	}
	metWALAppends.Inc()
}

// Err returns the first WAL append failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Finish writes the terminal-state marker and closes the WAL. A job
// with a marker is restored verbatim on recovery instead of resumed.
func (j *Journal) Finish(state, errMsg string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, err := json.Marshal(terminalMarker{State: state, Error: errMsg})
	if err != nil {
		return fmt.Errorf("jobstore: encode marker: %v", err)
	}
	if err := atomicWrite(filepath.Join(j.dir, "state.json"), append(raw, '\n')); err != nil {
		return err
	}
	return j.closeLocked()
}

// Close closes the WAL without a terminal marker, leaving the job
// interrupted — on recovery it resumes from the journaled cells. This
// is the graceful-shutdown path.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closeLocked()
}

func (j *Journal) closeLocked() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	return nil
}

// atomicWrite writes via a temp file and rename so readers (and
// recovery after a crash) never observe a torn file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	return nil
}
