package campaign

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// scriptExec is a fake Executor that sends precomputed results in a
// scripted order, which may repeat cells, stop short, or run on past
// a cancellation.
type scriptExec struct {
	results map[int]CellResult
	// order returns the cell indexes to send, in order.
	order func(cells, pending []Cell) []int
	// cancelAt, when cancel is set, cancels the run before the send
	// with that position; the script keeps sending afterwards.
	cancelAt int
	cancel   context.CancelFunc
	err      error
	returned atomic.Bool
}

func (x *scriptExec) Execute(ctx context.Context, job string, spec Spec, cells, pending []Cell, results chan<- CellResult) error {
	defer x.returned.Store(true)
	for i, idx := range x.order(cells, pending) {
		if x.cancel != nil && i == x.cancelAt {
			x.cancel()
		}
		if ctx.Err() != nil {
			// Give a fold loop that did not wait for the executor time
			// to return first.
			time.Sleep(time.Millisecond)
		}
		results <- x.results[idx]
	}
	return x.err
}

// TestFoldExecutorContract drives Fold with executors that deliver out
// of order, repeat cells, stop short, or keep sending after a cancel:
// every cell folds and emits at most once (exactly once when the run
// completes), a completed run's canonical aggregate is byte-identical
// to the batch fold, a failed run returns the executor's error or
// ctx's, and no sink sees a result after Fold returns.
func TestFoldExecutorContract(t *testing.T) {
	spec := gridSpec()
	all := simulateAll(t, spec)
	byIndex := make(map[int]CellResult, len(all))
	for _, r := range all {
		byIndex[r.Index] = r
	}
	want, err := NewAggregate(spec.Normalized(), all).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	indexes := func(cs []Cell) []int {
		out := make([]int, len(cs))
		for i, c := range cs {
			out[i] = c.Index
		}
		return out
	}
	reversed := func(_, pending []Cell) []int {
		idx := indexes(pending)
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
		return idx
	}
	// Every cell of the grid twice, seeded ones included.
	repeated := func(cells, _ []Cell) []int {
		idx := indexes(cells)
		return append(idx, indexes(cells)...)
	}
	half := func(_, pending []Cell) []int { return indexes(pending)[:len(pending)/2] }
	boom := errors.New("executor failed")

	cases := []struct {
		name   string
		order  func(cells, pending []Cell) []int
		seed   bool // pre-seed the aggregator with the even cells
		cancel int  // cancel before this send; -1 never
		err    error
		// wantErr is nil for a completed run; errUndelivered matches
		// any error.
		wantErr error
	}{
		{name: "out of order", order: reversed, cancel: -1},
		{name: "repeats and seeded strays", order: repeated, seed: true, cancel: -1},
		{name: "stops short", order: half, cancel: -1, wantErr: errUndelivered},
		{name: "stops short with error", order: half, cancel: -1, err: boom, wantErr: boom},
		{name: "sends after cancel", order: reversed, cancel: 10, wantErr: context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			x := &scriptExec{results: byIndex, order: tc.order, err: tc.err}
			if tc.cancel >= 0 {
				x.cancel, x.cancelAt = cancel, tc.cancel
			}
			agg := NewAggregator(spec)
			seeded := make(map[int]bool)
			if tc.seed {
				for _, r := range all {
					if r.Index%2 == 0 {
						agg.Add(r)
						seeded[r.Index] = true
					}
				}
			}
			var returned atomic.Bool
			emitted := make(map[int]int)
			late := 0
			sink := SinkFunc(func(r CellResult) {
				if returned.Load() {
					late++
				}
				emitted[r.Index]++
			})
			prog := &Progress{}
			a, err := Fold(ctx, x, "job", spec, prog, agg, sink)
			returned.Store(true)
			if !x.returned.Load() {
				t.Error("Fold returned before its executor")
			}
			if late != 0 {
				t.Errorf("%d results emitted after Fold returned", late)
			}
			for idx, n := range emitted {
				if n != 1 {
					t.Errorf("cell %d emitted %d times", idx, n)
				}
				if seeded[idx] {
					t.Errorf("seeded cell %d re-emitted", idx)
				}
			}
			switch {
			case tc.wantErr == errUndelivered:
				if err == nil {
					t.Fatal("run with undelivered cells returned no error")
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Fold error %v, want %v", err, tc.wantErr)
				}
				if tc.wantErr == context.Canceled && len(emitted) > tc.cancel {
					t.Errorf("%d results emitted, want at most the %d sent before the cancel", len(emitted), tc.cancel)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("aggregate diverges from the batch fold")
				}
				if len(emitted)+len(seeded) != len(all) {
					t.Fatalf("%d cells emitted + %d seeded, want %d", len(emitted), len(seeded), len(all))
				}
				if prog.Done() != prog.Total() {
					t.Fatalf("progress %d/%d after a completed run", prog.Done(), prog.Total())
				}
			}
		})
	}
}

// errUndelivered marks a case that expects Fold's own error for an
// executor that returned with cells undelivered.
var errUndelivered = errors.New("undelivered")

// TestStreamNilProgress pins that Stream accepts a nil Progress, as
// Fold and Coordinator.Dispatch do.
func TestStreamNilProgress(t *testing.T) {
	spec := gridSpec()
	a, err := Engine{}.Stream(context.Background(), spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewAggregate(spec.Normalized(), simulateAll(t, spec)).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("nil-Progress run diverges from the batch fold")
	}
}
