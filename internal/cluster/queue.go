package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/obs"
	"twmarch/internal/tracing"
)

// pendingCell is one cell waiting to be leased. eligible gates
// requeued cells behind their backoff.
type pendingCell struct {
	cell     campaign.Cell
	attempt  int
	eligible time.Time
}

// lease is one outstanding grant.
type lease struct {
	id       string
	worker   string
	cell     campaign.Cell
	attempt  int
	deadline time.Time
	// span covers the lease's lifetime coordinator-side: grant to
	// completion (ok), expiry (abandoned), or job end (revoked). Its
	// identity rides the grant's TraceParent to the worker.
	span *tracing.Span
}

// queue is one dispatched job's lease state. It owns the cells the
// job's fold loop is waiting on: pending cells are leased out FIFO
// (requeued cells behind their backoff gate), outstanding leases are
// kept alive by renewals and requeued when they expire, and each
// accepted completion is delivered to the results channel exactly once
// per cell — the channel has room for every pending cell, so sends
// never block while the mutex is held. drained closes with the last
// delivery.
type queue struct {
	job   string
	spec  campaign.Spec
	cells []campaign.Cell // full grid expansion, for validating results

	mu      sync.Mutex
	pending []pendingCell
	leases  map[string]*lease
	done    map[int]bool
	seq     int
	closed  bool
	// remaining counts pending cells not yet delivered.
	remaining int

	results chan<- campaign.CellResult
	drained chan struct{}
	opts    Options
	events  func(Event)
	// tctx is the dispatch span's context: lease spans start under it
	// so they parent to the dispatch span and land in the job's
	// trace collector.
	tctx context.Context

	// depth and out are this job's queue-depth and outstanding-lease
	// gauges, resolved once; close deletes the series.
	depth *obs.Gauge
	out   *obs.Gauge
}

// newQueue builds the queue for one job's run. cells is the full
// grid expansion; pending the subset still to simulate (the rest is
// marked done so a stray completion for a pre-folded cell is a
// duplicate, not a fold). tctx carries the dispatch span and the
// job's trace collector (nil means background).
func newQueue(tctx context.Context, job string, spec campaign.Spec, cells, pending []campaign.Cell, results chan<- campaign.CellResult, opts Options, events func(Event)) *queue {
	if tctx == nil {
		tctx = context.Background()
	}
	q := &queue{
		job:     job,
		spec:    spec,
		cells:   cells,
		leases:  make(map[string]*lease),
		done:    make(map[int]bool, len(cells)),
		results: results,
		drained: make(chan struct{}),
		opts:    opts,
		events:  events,
		tctx:    tctx,
		depth:   metQueueDepth.With(job),
		out:     metLeasesOut.With(job),
	}
	for _, c := range cells {
		q.done[c.Index] = true
	}
	q.pending = make([]pendingCell, 0, len(pending))
	for _, c := range pending {
		q.done[c.Index] = false
		q.pending = append(q.pending, pendingCell{cell: c})
	}
	q.remaining = len(pending)
	q.depth.Set(float64(len(q.pending)))
	return q
}

// gaugesLocked refreshes the queue's depth and outstanding-lease
// gauges; callers hold q.mu.
func (q *queue) gaugesLocked() {
	q.depth.Set(float64(len(q.pending)))
	q.out.Set(float64(len(q.leases)))
}

// emit tallies the events into the cluster metrics and fires the
// dispatch-event hook, both outside the queue lock.
func (q *queue) emit(evs []Event) {
	recordEvents(evs)
	if q.events == nil {
		return
	}
	for _, ev := range evs {
		q.events(ev)
	}
}

// lease grants the first eligible pending cell to worker. When nothing
// is grantable it returns nil along with the wait until the next
// requeued cell becomes eligible (zero when the queue is fully leased
// out or exhausted, meaning "poll again at the idle cadence").
func (q *queue) lease(worker string, now time.Time) (*LeaseGrant, time.Duration) {
	var evs []Event
	defer func() { q.emit(evs) }()
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.gaugesLocked()
	evs = q.expireLocked(now)
	if q.closed {
		return nil, 0
	}
	var wait time.Duration
	for i, p := range q.pending {
		if p.eligible.After(now) {
			if d := p.eligible.Sub(now); wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
		q.seq++
		l := &lease{
			id:       fmt.Sprintf("%s-%d", q.job, q.seq),
			worker:   worker,
			cell:     p.cell,
			attempt:  p.attempt,
			deadline: now.Add(q.opts.LeaseTTL),
		}
		_, l.span = tracing.Start(q.tctx, "cluster.lease", tracing.KindInternal)
		l.span.SetAttr("job", q.job)
		l.span.SetAttr("cell", strconv.Itoa(p.cell.Index))
		l.span.SetAttr("worker", worker)
		l.span.SetAttr("attempt", strconv.Itoa(p.attempt))
		q.leases[l.id] = l
		cell := p.cell
		evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventLease, Cell: cell.Index, Worker: worker, Lease: l.id, Attempt: l.attempt})
		return &LeaseGrant{
			Status:      StatusLease,
			LeaseID:     l.id,
			Job:         q.job,
			Spec:        &q.spec,
			Cell:        &cell,
			TTLNS:       q.opts.LeaseTTL.Nanoseconds(),
			TraceParent: l.span.Context().TraceParent(),
		}, 0
	}
	return nil, wait
}

// renew extends a lease's deadline. It reports false — gone — for a
// lease the queue no longer holds (expired and requeued, or completed
// by another worker) and for a closed queue.
func (q *queue) renew(leaseID string, now time.Time) bool {
	var evs []Event
	defer func() { q.emit(evs) }()
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.gaugesLocked()
	evs = q.expireLocked(now)
	if q.closed {
		return false
	}
	l, ok := q.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = now.Add(q.opts.LeaseTTL)
	metLeasesRenewed.Inc()
	return true
}

// complete accepts one simulated result. A valid result for a cell not
// yet folded is delivered to the results channel; a result for a cell
// already folded is a duplicate — acknowledged and dropped, folding
// nothing. Late completions whose lease already expired are still
// accepted when the cell is outstanding: the work is valid, and the
// cell's replacement lease (if any) is revoked. Results that don't
// match the job's own grid expansion are rejected.
func (q *queue) complete(leaseID string, res campaign.CellResult, now time.Time) (string, error) {
	var evs []Event
	defer func() { q.emit(evs) }()
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.gaugesLocked()
	evs = q.expireLocked(now)
	if q.closed {
		return StatusGone, nil
	}
	if res.Index < 0 || res.Index >= len(q.cells) || res.Cell != q.cells[res.Index] {
		return "", fmt.Errorf("cluster: result for job %s does not match cell %d of the grid", q.job, res.Index)
	}
	// Consume the named lease only when it actually covers this cell:
	// a mismatched (lease, result) pair must not delete some other
	// cell's lease — that cell would be neither pending, leased, nor
	// done, and the campaign would never finish. (The revoke sweep
	// below handles the completed cell's own leases by index.)
	attempt := 0
	if l, ok := q.leases[leaseID]; ok && l.cell.Index == res.Index {
		attempt = l.attempt
		delete(q.leases, leaseID)
		l.span.SetStatus(tracing.StatusOK)
		l.span.Finish()
	}
	if q.done[res.Index] {
		evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventDuplicate, Cell: res.Index, Lease: leaseID})
		return StatusOK, nil
	}
	// The cell may have been requeued (pending) or re-leased elsewhere
	// after this worker's lease expired; either way this completion
	// wins — drop the stragglers so nobody re-simulates it.
	for i, p := range q.pending {
		if p.cell.Index == res.Index {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			break
		}
	}
	for id, l := range q.leases {
		if l.cell.Index == res.Index {
			delete(q.leases, id)
			l.span.SetStatus(tracing.StatusRevoked)
			l.span.Finish()
			evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventRevoke, Cell: res.Index, Worker: l.worker, Lease: id, Attempt: l.attempt})
		}
	}
	q.done[res.Index] = true
	evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventComplete, Cell: res.Index, Lease: leaseID, Attempt: attempt})
	q.deliverLocked(res)
	return StatusOK, nil
}

// expire requeues every lease past its deadline.
func (q *queue) expire(now time.Time) {
	q.mu.Lock()
	evs := q.expireLocked(now)
	q.gaugesLocked()
	q.mu.Unlock()
	q.emit(evs)
}

// expireLocked is expire under q.mu; it returns the events to emit
// once the lock is released. An expired cell re-enters the queue
// behind an exponential backoff gate; a cell that exhausted
// MaxAttempts folds as an errored result so the campaign still
// terminates.
func (q *queue) expireLocked(now time.Time) []Event {
	if q.closed {
		return nil
	}
	var evs []Event
	for id, l := range q.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(q.leases, id)
		// The holder vanished either way (requeue or abandon): the
		// lease span closes abandoned, and the loadgen chaos stage
		// asserts exactly these spans for SIGKILLed workers.
		l.span.SetStatus(tracing.StatusAbandoned)
		l.span.Finish()
		attempt := l.attempt + 1
		evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventExpire, Cell: l.cell.Index, Worker: l.worker, Lease: id, Attempt: attempt})
		if attempt >= q.opts.MaxAttempts {
			res := campaign.CellResult{Cell: l.cell}
			res.Err = fmt.Sprintf("cluster: cell %d abandoned after %d expired leases", l.cell.Index, attempt)
			q.done[l.cell.Index] = true
			evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventAbandon, Cell: l.cell.Index, Attempt: attempt})
			q.deliverLocked(res)
			continue
		}
		q.pending = append(q.pending, pendingCell{
			cell:     l.cell,
			attempt:  attempt,
			eligible: now.Add(q.backoff(attempt)),
		})
		evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventRequeue, Cell: l.cell.Index, Attempt: attempt})
	}
	return evs
}

// deliverLocked sends one cell's result and closes drained after the
// last; callers hold q.mu and have marked the cell done.
func (q *queue) deliverLocked(res campaign.CellResult) {
	q.results <- res
	q.remaining--
	if q.remaining == 0 {
		close(q.drained)
	}
}

// backoff returns the requeue delay before attempt n+1: exponential in
// the completed attempts, capped.
func (q *queue) backoff(attempt int) time.Duration {
	return capDoubling(q.opts.RetryBackoff, q.opts.MaxBackoff, attempt-1)
}

// capDoubling returns base·2^doublings clamped to max — the one
// exponential-backoff schedule, shared by the queue's requeue delay
// and the client's retry delay.
func capDoubling(base, max time.Duration, doublings int) time.Duration {
	d := base
	for i := 0; i < doublings && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// close revokes every outstanding lease and stops the queue cold:
// every later lease/renew/complete answers gone. The eviction, cancel,
// and drain path.
func (q *queue) close(now time.Time) {
	var evs []Event
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		for id, l := range q.leases {
			l.span.SetStatus(tracing.StatusRevoked)
			l.span.Finish()
			evs = append(evs, Event{TimeNS: now.UnixNano(), Kind: EventRevoke, Cell: l.cell.Index, Worker: l.worker, Lease: id, Attempt: l.attempt})
			delete(q.leases, id)
		}
		q.pending = nil
	}
	q.mu.Unlock()
	// The job's dispatch is over: drop its gauge series so a long-lived
	// coordinator's exposition stays bounded by in-flight jobs.
	metQueueDepth.Delete(q.job)
	metLeasesOut.Delete(q.job)
	q.emit(evs)
}

// maxShippedSpans caps how many worker-shipped span records one
// completion may carry into the ring and collector.
const maxShippedSpans = 512

// recordSpans folds worker-shipped span records into the process ring
// and the job's trace collector, so cross-process timelines assemble
// coordinator-side. Records from a different trace than the job's are
// dropped — a stale or confused worker must not pollute another job's
// timeline. A worker retrying a lost completion can deliver the same
// record twice; duplicates are harmless in both surfaces.
func (q *queue) recordSpans(recs []tracing.SpanRecord) {
	if len(recs) == 0 {
		return
	}
	if len(recs) > maxShippedSpans {
		recs = recs[:maxShippedSpans]
	}
	jobTrace := ""
	if sp := tracing.SpanFromContext(q.tctx); sp != nil {
		jobTrace = sp.Context().Trace.String()
	}
	col := tracing.CollectorFromContext(q.tctx)
	for _, rec := range recs {
		if jobTrace != "" && rec.Trace != jobTrace {
			continue
		}
		tracing.Default().Record(rec)
		col.Add(rec)
	}
}

// workerLeases counts worker's outstanding leases.
func (q *queue) workerLeases(worker string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, l := range q.leases {
		if l.worker == worker {
			n++
		}
	}
	return n
}
