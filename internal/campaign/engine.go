package campaign

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress exposes a campaign's completion counters and run timestamps
// for polling while the engine runs. All methods are safe for
// concurrent use. A Progress tracks one run; do not reuse it across
// runs.
type Progress struct {
	total atomic.Int64
	done  atomic.Int64
	// base is the done count at run start: cells recovered from a
	// journal count toward Done but took no wall-clock time, so rate
	// and ETA are computed over the cells simulated this run.
	base    atomic.Int64
	startNS atomic.Int64
	endNS   atomic.Int64
}

// Total returns the number of grid cells in the running campaign.
func (p *Progress) Total() int64 { return p.total.Load() }

// Done returns the number of cells completed so far, including cells
// recovered from a journal rather than simulated this run.
func (p *Progress) Done() int64 { return p.done.Load() }

// Fraction returns completion in [0, 1] (1 when the grid is empty).
func (p *Progress) Fraction() float64 {
	t := p.Total()
	if t == 0 {
		return 1
	}
	return float64(p.Done()) / float64(t)
}

// start stamps the run's start time once and records the done baseline
// for rate accounting.
func (p *Progress) start() {
	if p.startNS.CompareAndSwap(0, time.Now().UnixNano()) {
		p.base.Store(p.done.Load())
	}
}

// finish stamps the run's end time once, freezing Elapsed and Rate.
func (p *Progress) finish() {
	p.endNS.CompareAndSwap(0, time.Now().UnixNano())
}

// Elapsed returns wall-clock time since the run started, frozen at the
// run's end once it finished. Zero before the engine picks the
// campaign up.
func (p *Progress) Elapsed() time.Duration {
	start := p.startNS.Load()
	if start == 0 {
		return 0
	}
	end := p.endNS.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - start)
}

// Rate returns the simulation rate in cells per second over this run
// (journal-recovered cells excluded). Zero until the run has both
// started and completed at least one cell.
func (p *Progress) Rate() float64 {
	el := p.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(p.done.Load()-p.base.Load()) / el.Seconds()
}

// ETA estimates the remaining wall-clock time from the current rate.
// Zero when unknown (no rate yet) or when the run is complete.
func (p *Progress) ETA() time.Duration {
	if p.endNS.Load() != 0 {
		return 0
	}
	rem := p.total.Load() - p.done.Load()
	if rem <= 0 {
		return 0
	}
	rate := p.Rate()
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(rem) / rate * float64(time.Second))
}

// Engine executes campaign grids over a worker pool. The zero value
// runs with GOMAXPROCS workers and an automatic batch size; Spec
// fields override both.
type Engine struct {
	// Workers bounds pool size when the spec doesn't; 0 means
	// GOMAXPROCS.
	Workers int
	// Batch is the shard size when the spec doesn't set one; 0 picks a
	// size that gives every worker several shards for load balancing.
	Batch int
}

// Run executes the campaign and returns its aggregate. It is
// equivalent to RunProgress with a throwaway Progress.
func (e Engine) Run(ctx context.Context, spec Spec) (*Aggregate, error) {
	return e.RunProgress(ctx, spec, &Progress{})
}

// RunProgress executes the campaign, publishing completion counters
// into prog. It is a thin wrapper over Stream with no sinks and a
// fresh aggregator.
func (e Engine) RunProgress(ctx context.Context, spec Spec, prog *Progress) (*Aggregate, error) {
	return e.Stream(ctx, spec, prog, nil)
}

// Stream executes the campaign on the engine's worker pool: it is
// Fold with the engine as executor. The grid is expanded in
// deterministic order, sharded into batches, fanned out to the pool,
// and every completed CellResult is folded into agg and emitted to
// each sink as it lands — in completion order, serialized, exactly
// once per cell. The returned aggregate is byte-identical (canonical
// form) for any worker count or completion order because every fold
// operation commutes.
//
// agg may be nil (a fresh aggregator is created) or pre-seeded with
// journaled results from an interrupted run of the same spec: seeded
// cells are skipped, counted in prog immediately, and not re-emitted
// to the sinks — only the remainder is simulated. prog may be nil.
// Cancellation via ctx returns ctx's error; per-cell failures do not
// abort the run (they land in CellResult.Err).
func (e Engine) Stream(ctx context.Context, spec Spec, prog *Progress, agg *Aggregator, sinks ...Sink) (*Aggregate, error) {
	return Fold(ctx, e, "", spec, prog, agg, sinks...)
}

// Execute runs the pending cells on a pool of goroutines (the
// Executor for in-process campaigns): pending is sharded into batches
// that the workers pull, and the cells of one run share a fault
// enumeration per memory geometry. The job label is unused.
func (e Engine) Execute(ctx context.Context, job string, spec Spec, cells, pending []Cell, results chan<- CellResult) error {
	workers := spec.Workers
	if workers == 0 {
		workers = e.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	batch := spec.Batch
	if batch == 0 {
		batch = e.Batch
	}
	if batch <= 0 {
		// Several shards per worker so a slow cell doesn't strand the
		// pool on one oversized batch.
		batch = len(pending)/(4*workers) + 1
	}
	shards := Shard(pending, batch)

	jobs := make(chan []Cell)
	cache := &faultCache{}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			metActiveWorkers.Inc()
			defer metActiveWorkers.Dec()
			for shard := range jobs {
				for _, c := range shard {
					if ctx.Err() != nil {
						return
					}
					r := runCell(ctx, spec, c, cache)
					if ctx.Err() != nil {
						// The run was canceled while this cell simulated:
						// its result may be a poisoned partial tally
						// (runCell records ctx.Err() per cell). Fold
						// returns ctx's error anyway, so never send it —
						// a journal sink must not persist a cancellation
						// artifact as a real cell.
						return
					}
					select {
					case results <- r:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, s := range shards {
			select {
			case jobs <- s:
			case <-ctx.Done():
				return
			}
		}
	}()
	wg.Wait()
	return ctx.Err()
}
