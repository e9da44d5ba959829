package campaign

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"twmarch/internal/tracing"
)

// Executor runs a campaign's cells for Fold. Engine is the in-process
// worker pool; the cluster coordinator's lease queue is the other.
type Executor interface {
	// Execute runs the pending cells of the normalized spec (cells is
	// its full grid expansion, pending the cells not yet folded) and
	// sends each result at most once on results, which has room for
	// one result per pending cell, so a send never blocks. It returns
	// once every pending result is sent or ctx is done, and sends
	// nothing after it returns. job names the run for executors that
	// publish it (lease ids, metric labels); it may be empty.
	Execute(ctx context.Context, job string, spec Spec, cells, pending []Cell, results chan<- CellResult) error
}

// Fold runs the campaign on exec and is the one loop that turns cell
// results into an aggregate. It expands the grid, skips the cells agg
// already holds (agg may be nil, or pre-seeded from a journal: seeded
// cells count in prog at once and are not re-emitted), and folds every
// result exec delivers into agg and emits it to each sink — serialized,
// in delivery order, exactly once per cell, whatever exec repeats. A
// result that arrives after ctx is done is dropped: the run returns
// ctx's error, and a journal sink must never persist a cancellation
// artifact. Fold returns only after exec has returned, so no sink sees
// a result after Fold returns. prog may be nil.
//
// The returned aggregate is agg's final snapshot; its canonical form
// is byte-identical for any executor, worker count or delivery order,
// because every fold operation commutes. exec's error, or ctx's, is
// returned in place of it; so is an error when exec returns with
// cells undelivered.
func Fold(ctx context.Context, exec Executor, job string, spec Spec, prog *Progress, agg *Aggregator, sinks ...Sink) (*Aggregate, error) {
	start := time.Now()
	spec = spec.Normalized()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	var span *tracing.Span
	ctx, span = tracing.Start(ctx, "campaign.stream", tracing.KindInternal)
	span.SetAttr("cells", strconv.Itoa(len(cells)))
	defer func() {
		if ctx.Err() != nil {
			span.SetStatus(tracing.StatusCanceled)
		}
		span.Finish()
	}()
	if agg == nil {
		agg = NewAggregator(spec)
	}
	if prog == nil {
		prog = &Progress{}
	}
	pending := make([]Cell, 0, len(cells))
	for _, c := range cells {
		if !agg.Has(c.Index) {
			pending = append(pending, c)
		}
	}
	prog.total.Store(int64(len(cells)))
	prog.done.Store(int64(len(cells) - len(pending)))
	prog.start()
	defer prog.finish()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	folded := 0
	if len(pending) > 0 {
		results := make(chan CellResult, len(pending))
		var execErr error
		go func() {
			execErr = exec.Execute(ctx, job, spec, cells, pending, results)
			close(results)
		}()
		// Sinks observe results one at a time, and an aggregator
		// snapshot taken concurrently always includes every result
		// already emitted.
		for r := range results {
			if ctx.Err() != nil || agg.Has(r.Index) {
				continue
			}
			agg.Add(r)
			prog.done.Add(1)
			folded++
			for _, s := range sinks {
				if s != nil {
					s.Emit(r)
				}
			}
		}
		if execErr != nil {
			return nil, execErr
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if folded < len(pending) {
		return nil, fmt.Errorf("campaign: executor returned with %d of %d cells undelivered", len(pending)-folded, len(pending))
	}
	a := agg.Snapshot()
	a.WallClockNS = time.Since(start).Nanoseconds()
	return a, nil
}
