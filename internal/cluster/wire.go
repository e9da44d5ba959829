// Package cluster fans a campaign's cell grid out across processes
// and machines: a coordinator (embedded in cmd/twmd behind -cluster)
// keeps a lease queue over the grid's cells, and any number of twmw
// workers poll it over HTTP, simulate leased cells locally, and report
// results back.
//
// The design leans on the properties the campaign engine already
// guarantees. Every cell carries its deterministic seed, so a result
// is a pure function of (spec, cell) no matter which worker computes
// it; and the Aggregator's fold is commutative and dup-safe, so the
// coordinator can accept completions in any order — including
// duplicates from retried requests or from a lease that expired and
// was re-run elsewhere — and still produce an aggregate byte-identical
// to a single-process Engine.Stream run. The lease queue is a
// campaign.Executor: results fold through the same campaign.Fold loop
// as the engine's (one goroutine, fold then emit to each Sink exactly
// once), so twmd's event hub, the journal, and -datadir recovery work
// unchanged under dispatch.
//
// Failure handling: leases carry a TTL and are kept alive by worker
// heartbeats (renew); an expired lease requeues its cell with
// exponential backoff, and a cell that exhausts its attempts folds as
// an errored result rather than wedging the campaign. A lease or job
// the coordinator no longer knows — evicted, canceled, drained, or
// expired — answers "gone", telling the worker to abandon the cell.
package cluster

import (
	"twmarch/internal/campaign"
	"twmarch/internal/tracing"
)

// Wire statuses returned by the coordinator's /cluster endpoints.
const (
	// StatusLease marks a lease grant: the response carries a cell.
	StatusLease = "lease"
	// StatusIdle means nothing is leasable right now; retry after the
	// advertised backoff.
	StatusIdle = "idle"
	// StatusOK acknowledges a renew or complete.
	StatusOK = "ok"
	// StatusGone is terminal for the lease: its job was evicted,
	// canceled, or drained, or the lease expired and moved on. The
	// worker stops simulating the cell and discards it.
	StatusGone = "gone"
)

// LeaseRequest asks the coordinator for one cell to simulate
// (POST /cluster/lease).
type LeaseRequest struct {
	// Worker identifies the requester for heartbeat accounting and the
	// dispatch event log.
	Worker string `json:"worker"`
}

// LeaseGrant is the /cluster/lease response. Status selects which
// fields are populated: a StatusLease grant carries the lease id, the
// owning job, the cell (with its deterministic seed), the spec the
// cell must be simulated under, and the lease TTL the worker's
// heartbeats must beat; StatusIdle carries only the retry backoff.
type LeaseGrant struct {
	Status  string         `json:"status"`
	LeaseID string         `json:"lease_id,omitempty"`
	Job     string         `json:"job,omitempty"`
	Spec    *campaign.Spec `json:"spec,omitempty"`
	Cell    *campaign.Cell `json:"cell,omitempty"`
	TTLNS   int64          `json:"ttl_ns,omitempty"`
	RetryNS int64          `json:"retry_ns,omitempty"`
	// TraceParent carries the coordinator-side lease span's identity
	// so the worker's cell execution continues the job's trace.
	TraceParent string `json:"traceparent,omitempty"`
}

// RenewRequest is a lease heartbeat (POST /cluster/renew): it pushes
// the lease deadline out by one TTL.
type RenewRequest struct {
	Worker  string `json:"worker"`
	Job     string `json:"job"`
	LeaseID string `json:"lease_id"`
}

// RenewResponse acknowledges a heartbeat (StatusOK, with the renewed
// TTL) or terminates the lease (StatusGone).
type RenewResponse struct {
	Status string `json:"status"`
	TTLNS  int64  `json:"ttl_ns,omitempty"`
}

// CompleteRequest reports a simulated cell (POST /cluster/complete).
// The result embeds the cell — including its seed — so the
// coordinator can verify it against its own grid expansion before
// folding.
type CompleteRequest struct {
	Worker  string              `json:"worker"`
	Job     string              `json:"job"`
	LeaseID string              `json:"lease_id"`
	Result  campaign.CellResult `json:"result"`
	// Spans are the worker-side spans finished while simulating the
	// leased cell, shipped back so the coordinator can assemble the
	// job's full cross-process timeline.
	Spans []tracing.SpanRecord `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion. StatusOK covers the
// duplicate case too — folding a duplicate is a no-op, so the worker
// needs no distinct handling; StatusGone means the job is dead and the
// result was discarded.
type CompleteResponse struct {
	Status string `json:"status"`
}

// WorkerStatus is one row of the GET /cluster/workers listing: the
// coordinator's per-worker heartbeat view.
type WorkerStatus struct {
	// Worker is the id the worker reports in its requests.
	Worker string `json:"worker"`
	// LastSeenNS is nanoseconds since the worker's last lease, renew,
	// or complete.
	LastSeenNS int64 `json:"last_seen_ns"`
	// Leases counts the worker's outstanding leases.
	Leases int `json:"leases"`
}

// Event is one scheduling event of a dispatched campaign — the
// coordinator emits these into the hook Dispatch is given.
type Event struct {
	// TimeNS is the event's wall-clock timestamp.
	TimeNS int64 `json:"time_ns"`
	// Kind is "lease", "complete", "duplicate", "expire", "requeue",
	// "abandon", or "revoke".
	Kind string `json:"kind"`
	// Cell is the affected cell's grid index.
	Cell int `json:"cell"`
	// Worker and Lease identify the holder, when the event has one.
	Worker string `json:"worker,omitempty"`
	Lease  string `json:"lease,omitempty"`
	// Attempt is the cell's completed lease attempts so far.
	Attempt int `json:"attempt,omitempty"`
}

// Event kinds recorded in the dispatch event log.
const (
	// EventLease marks a lease grant.
	EventLease = "lease"
	// EventComplete marks a result accepted and folded.
	EventComplete = "complete"
	// EventDuplicate marks a completion for a cell already folded —
	// dropped as a no-op.
	EventDuplicate = "duplicate"
	// EventExpire marks a lease passing its deadline.
	EventExpire = "expire"
	// EventRequeue marks an expired cell re-entering the queue with
	// backoff.
	EventRequeue = "requeue"
	// EventAbandon marks a cell that exhausted its attempts and folded
	// as an errored result.
	EventAbandon = "abandon"
	// EventRevoke marks an outstanding lease discarded because its job
	// ended (evicted, canceled, or drained).
	EventRevoke = "revoke"
)
