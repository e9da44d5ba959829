package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/tracing"
)

// Options tunes the coordinator. The zero value gets production
// defaults from withDefaults.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a renewal.
	// Workers heartbeat at a fraction of this. Default 15s.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease attempts per cell: a cell whose leases
	// expired this many times folds as an errored result instead of
	// requeueing forever. Default 5.
	MaxAttempts int
	// RetryBackoff is the requeue delay after a cell's first expired
	// lease; it doubles per further expiry up to MaxBackoff. Defaults
	// 250ms and 5s.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// IdleRetry is the poll backoff advertised to workers when nothing
	// is leasable. Default 500ms.
	IdleRetry time.Duration
	// Chaos exposes the /cluster/chaos fault-injection surface (see
	// chaos.go) — delays and error answers on the worker-facing
	// endpoints, driven from outside the process by the twmload soak
	// harness. Never enable it on a production coordinator.
	Chaos bool
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.IdleRetry <= 0 {
		o.IdleRetry = 500 * time.Millisecond
	}
	return o
}

// Coordinator is the dispatch side of cluster execution: it owns a
// lease queue per in-flight job and serves the /cluster HTTP API
// workers poll. Safe for concurrent use; any number of jobs dispatch
// at once.
type Coordinator struct {
	opts  Options
	chaos chaos

	mu    sync.Mutex
	jobs  map[string]*queue
	order []string // registration order, for round-robin lease fairness
	next  int
	seen  map[string]time.Time // worker -> last heartbeat
}

// New returns a coordinator with opts (zero fields defaulted).
func New(opts Options) *Coordinator {
	return &Coordinator{
		opts: opts.withDefaults(),
		jobs: make(map[string]*queue),
		seen: make(map[string]time.Time),
	}
}

// register adds a job's queue; the job id must be unique among
// in-flight dispatches.
func (c *Coordinator) register(job string, q *queue) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[job]; ok {
		return fmt.Errorf("cluster: job %s already dispatching", job)
	}
	c.jobs[job] = q
	c.order = append(c.order, job)
	metJobsDispatching.Set(float64(len(c.jobs)))
	return nil
}

// unregister drops a job's queue and revokes its outstanding leases;
// every later lease, renew, or complete touching the job answers gone.
func (c *Coordinator) unregister(job string) {
	c.mu.Lock()
	q := c.jobs[job]
	delete(c.jobs, job)
	metJobsDispatching.Set(float64(len(c.jobs)))
	for i, id := range c.order {
		if id == job {
			c.order = append(c.order[:i], c.order[i+1:]...)
			if c.next > i {
				c.next--
			}
			break
		}
	}
	c.mu.Unlock()
	if q != nil {
		q.close(time.Now())
	}
}

// lookup returns the job's queue, or nil for a job the coordinator no
// longer (or never) knew — the gone case.
func (c *Coordinator) lookup(job string) *queue {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[job]
}

// seenHorizon is how long a silent worker stays in the heartbeat view
// before it is pruned, in lease TTLs. Workers churn (twmw ids default
// to host-pid), so the map must not grow with every process ever seen.
const seenHorizon = 20

// heartbeat records a worker sighting and prunes long-silent workers.
func (c *Coordinator) heartbeat(worker string, now time.Time) {
	if worker == "" {
		return
	}
	cutoff := now.Add(-seenHorizon * c.opts.LeaseTTL)
	c.mu.Lock()
	c.seen[worker] = now
	metWorkerHeartbeat.With(worker).Set(float64(now.UnixNano()) / 1e9)
	for w, t := range c.seen {
		if t.Before(cutoff) {
			delete(c.seen, w)
			metWorkerHeartbeat.Delete(w)
		}
	}
	metWorkersLive.Set(float64(len(c.seen)))
	c.mu.Unlock()
}

// Lease grants one cell from any dispatching job, round-robin across
// jobs so one huge grid cannot starve the others. When nothing is
// grantable the returned grant is StatusIdle with the retry backoff.
func (c *Coordinator) Lease(worker string, now time.Time) *LeaseGrant {
	c.heartbeat(worker, now)
	c.mu.Lock()
	queues := make([]*queue, 0, len(c.order))
	for i := 0; i < len(c.order); i++ {
		queues = append(queues, c.jobs[c.order[(c.next+i)%len(c.order)]])
	}
	if len(c.order) > 0 {
		c.next = (c.next + 1) % len(c.order)
	}
	c.mu.Unlock()
	retry := c.opts.IdleRetry
	for _, q := range queues {
		grant, wait := q.lease(worker, now)
		if grant != nil {
			return grant
		}
		if wait > 0 && wait < retry {
			retry = wait
		}
	}
	return &LeaseGrant{Status: StatusIdle, RetryNS: retry.Nanoseconds()}
}

// Renew heartbeats a lease; StatusGone tells the worker to abandon the
// cell.
func (c *Coordinator) Renew(req RenewRequest, now time.Time) RenewResponse {
	c.heartbeat(req.Worker, now)
	q := c.lookup(req.Job)
	if q == nil || !q.renew(req.LeaseID, now) {
		return RenewResponse{Status: StatusGone}
	}
	return RenewResponse{Status: StatusOK, TTLNS: c.opts.LeaseTTL.Nanoseconds()}
}

// Complete delivers a worker's result to its job's fold loop.
// Duplicates acknowledge as StatusOK and fold nothing; a dead job
// answers StatusGone; a result that contradicts the job's own grid
// expansion is an error.
func (c *Coordinator) Complete(req CompleteRequest, now time.Time) (CompleteResponse, error) {
	c.heartbeat(req.Worker, now)
	q := c.lookup(req.Job)
	if q == nil {
		return CompleteResponse{Status: StatusGone}, nil
	}
	st, err := q.complete(req.LeaseID, req.Result, now)
	if err != nil {
		return CompleteResponse{}, err
	}
	q.recordSpans(req.Spans)
	return CompleteResponse{Status: st}, nil
}

// Workers snapshots the per-worker heartbeat view.
func (c *Coordinator) Workers(now time.Time) []WorkerStatus {
	c.mu.Lock()
	workers := make([]string, 0, len(c.seen))
	last := make(map[string]time.Time, len(c.seen))
	for w, t := range c.seen {
		workers = append(workers, w)
		last[w] = t
	}
	queues := make([]*queue, 0, len(c.jobs))
	for _, q := range c.jobs {
		queues = append(queues, q)
	}
	c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(workers))
	for _, w := range workers {
		n := 0
		for _, q := range queues {
			n += q.workerLeases(w)
		}
		out = append(out, WorkerStatus{Worker: w, LastSeenNS: now.Sub(last[w]).Nanoseconds(), Leases: n})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Worker < out[b].Worker })
	return out
}

// Dispatch runs one campaign by leasing its cells to workers instead
// of simulating locally: it is campaign.Fold with the lease queue as
// executor, so it keeps Engine.Stream's contract — each accepted
// result is folded into agg, counted in prog, and emitted to every
// sink exactly once, serialized; agg may be pre-seeded with journaled
// results (the recovery path), whose cells are neither leased nor
// re-emitted; prog may be nil. The events hook (may be nil) observes
// every scheduling event. The returned aggregate is byte-identical in
// canonical form to a single-process run of the same spec for any
// worker placement, interleaving, or retry history.
func (c *Coordinator) Dispatch(ctx context.Context, job string, spec campaign.Spec, prog *campaign.Progress, agg *campaign.Aggregator, events func(Event), sinks ...campaign.Sink) (*campaign.Aggregate, error) {
	return campaign.Fold(ctx, c.Executor(events), job, spec, prog, agg, sinks...)
}

// Executor returns the coordinator's lease queue as a
// campaign.Executor. Each Execute registers a queue for its job (the
// job id must be unique among in-flight runs), leases the pending
// cells to polling workers, and on return unregisters the queue,
// revoking every outstanding lease. events (may be nil) observes every
// scheduling event.
func (c *Coordinator) Executor(events func(Event)) campaign.Executor {
	return leases{c: c, events: events}
}

// leases is the lease-queue campaign.Executor.
type leases struct {
	c      *Coordinator
	events func(Event)
}

// Execute implements campaign.Executor.
func (l leases) Execute(ctx context.Context, job string, spec campaign.Spec, cells, pending []campaign.Cell, results chan<- campaign.CellResult) error {
	tctx, span := tracing.Start(ctx, "cluster.dispatch", tracing.KindInternal)
	span.SetAttr("job", job)
	span.SetAttr("cells", strconv.Itoa(len(cells)))
	span.SetAttr("pending", strconv.Itoa(len(pending)))
	defer func() {
		if ctx.Err() != nil {
			span.SetStatus(tracing.StatusCanceled)
		}
		span.Finish()
	}()
	q := newQueue(tctx, job, spec, cells, pending, results, l.c.opts, l.events)
	if err := l.c.register(job, q); err != nil {
		return err
	}
	defer l.c.unregister(job)

	// Expiry is driven two ways: lazily on every worker call, and by
	// this ticker so a queue all of whose workers died still requeues.
	period := l.c.opts.LeaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-q.drained:
			return nil
		case <-tick.C:
			q.expire(time.Now())
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ServeHTTP serves the worker-facing API under /cluster/: POST lease,
// renew, and complete, plus GET workers (the heartbeat listing).
// cmd/twmd mounts this on its mux when -cluster is set.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster/chaos" {
		c.serveChaos(w, r)
		return
	}
	if c.opts.Chaos && c.chaos.intercept(w, r) {
		return
	}
	now := time.Now()
	switch r.URL.Path {
	case "/cluster/lease":
		var req LeaseRequest
		if !decodeInto(w, r, &req) {
			return
		}
		grant := c.Lease(req.Worker, now)
		if grant.Status == StatusIdle {
			// Retry-After is advisory here (the body carries the precise
			// backoff); proxies and generic clients understand the header.
			w.Header().Set("Retry-After", strconv.Itoa(int(grant.RetryNS/1e9)+1))
		}
		writeJSON(w, http.StatusOK, grant)
	case "/cluster/renew":
		var req RenewRequest
		if !decodeInto(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.Renew(req, now))
	case "/cluster/complete":
		var req CompleteRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.Complete(req, now)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	case "/cluster/workers":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		writeJSON(w, http.StatusOK, c.Workers(now))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no cluster endpoint %q", r.URL.Path))
	}
}

// decodeInto parses a POST body, writing the HTTP error itself when
// the request is unusable.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
