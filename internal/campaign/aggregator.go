package campaign

import "sync"

// Sink receives completed cell results as the engine's workers finish
// them — the event stream a campaign run emits. Results arrive in
// completion order (not grid order) but exactly once per cell, and the
// engine serializes Emit calls, so a Sink needs no locking of its own
// against the worker pool. cmd/twmd plugs its NDJSON event hub and the
// durable job journal in here; cmd/faultsim plugs a progress printer.
type Sink interface {
	Emit(CellResult)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(CellResult)

// Emit calls f(r).
func (f SinkFunc) Emit(r CellResult) { f(r) }

// Aggregator folds cell results incrementally: Add accepts results in
// any order (workers emit in completion order) and Snapshot returns
// the aggregate folded so far. Because every fold operation is
// commutative — min/max bounds, integer tallies, map merges — the
// final aggregate is byte-identical to a batch fold in grid order, for
// any arrival order. All methods are safe for concurrent use, so a
// server can snapshot a live partial aggregate while the engine is
// still adding results.
//
// An Aggregator pre-seeded with journaled results (Add before handing
// it to Fold or Engine.Stream) makes the run skip those cells — the
// recovery path of a durable job server.
type Aggregator struct {
	mu     sync.Mutex
	spec   Spec
	slots  []CellResult
	filled []bool
	added  int

	coverage   map[string]map[string]ClassCount
	ops        map[string]OpStats
	yield      map[string]*YieldStats
	yieldTotal *YieldStats
	faults     int
	detected   int
	errors     int
}

// NewAggregator returns an empty aggregator for the spec. The spec is
// normalized, matching what Engine runs and what Aggregate.Spec
// documents.
func NewAggregator(spec Spec) *Aggregator {
	return &Aggregator{
		spec:     spec.Normalized(),
		coverage: make(map[string]map[string]ClassCount),
		ops:      make(map[string]OpStats),
	}
}

// Add folds one result in, slotted by its cell index. A negative index
// or a cell index already folded is ignored, so replaying a journal
// with duplicates cannot double-count.
func (g *Aggregator) Add(r CellResult) {
	g.mu.Lock()
	g.addAt(r.Index, r)
	g.mu.Unlock()
}

// Emit makes the aggregator itself a Sink.
func (g *Aggregator) Emit(r CellResult) { g.Add(r) }

// addAt slots r at index i and folds it. Callers hold g.mu.
func (g *Aggregator) addAt(i int, r CellResult) {
	if i < 0 || g.has(i) {
		return
	}
	if i >= len(g.slots) {
		// Grow with doubling so ascending-order folds (single worker,
		// WAL replay, batch NewAggregate) stay amortized linear.
		n := 2 * len(g.slots)
		if n < i+1 {
			n = i + 1
		}
		slots := make([]CellResult, n)
		copy(slots, g.slots)
		g.slots = slots
		filled := make([]bool, n)
		copy(filled, g.filled)
		g.filled = filled
	}
	g.slots[i] = r
	g.filled[i] = true
	g.added++
	g.fold(r)
}

// fold accumulates one result into the running totals. The operations
// are all commutative, which is what makes the incremental aggregate
// independent of arrival order.
func (g *Aggregator) fold(r CellResult) {
	if r.Err != "" {
		g.errors++
		return
	}
	g.faults += r.Faults
	g.detected += r.Detected
	m := g.coverage[r.Scheme]
	if m == nil {
		m = make(map[string]ClassCount)
		g.coverage[r.Scheme] = m
	}
	for cls, c := range r.ByClass {
		t := m[cls]
		t.Total += c.Total
		t.Detected += c.Detected
		m[cls] = t
	}
	os := g.ops[r.Scheme]
	os.add(r)
	g.ops[r.Scheme] = os
	if r.Yield != nil {
		if g.yield == nil {
			g.yield = make(map[string]*YieldStats)
			g.yieldTotal = &YieldStats{}
		}
		ys := g.yield[r.Scheme]
		if ys == nil {
			ys = &YieldStats{}
			g.yield[r.Scheme] = ys
		}
		ys.merge(r.Yield)
		g.yieldTotal.merge(r.Yield)
	}
}

// Has reports whether the cell at index i has been folded in.
func (g *Aggregator) Has(i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.has(i)
}

func (g *Aggregator) has(i int) bool {
	return i >= 0 && i < len(g.filled) && g.filled[i]
}

// Added returns the number of cells folded so far.
func (g *Aggregator) Added() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.added
}

// Stats is the cheap live view of an aggregator — the headline
// counters without the deep copy Snapshot makes. cmd/twmd serves these
// on the status endpoint while a grid is still running.
type Stats struct {
	// Cells counts the results folded so far.
	Cells int
	// Faults, Detected and Errors mirror the Aggregate fields.
	Faults   int
	Detected int
	Errors   int
}

// CoverageFraction returns the detected fraction over the cells folded
// so far (1 while nothing has landed).
func (s Stats) CoverageFraction() float64 {
	if s.Faults == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.Faults)
}

// Stats returns the running counters.
func (g *Aggregator) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{Cells: g.added, Faults: g.faults, Detected: g.detected, Errors: g.errors}
}

// Snapshot returns the aggregate folded so far. The copy is deep in
// everything the aggregator keeps mutating, so a snapshot taken
// mid-run stays consistent while results continue to land; Cells holds
// the completed results in grid order (nil while none have landed).
// Once every cell of the grid has been added, Snapshot is the final
// aggregate — byte-identical, in canonical form, to a batch
// NewAggregate over the same results.
func (g *Aggregator) Snapshot() *Aggregate {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := &Aggregate{
		Spec:     g.spec,
		Coverage: make(map[string]map[string]ClassCount, len(g.coverage)),
		Ops:      make(map[string]OpStats, len(g.ops)),
		Faults:   g.faults,
		Detected: g.detected,
		Errors:   g.errors,
	}
	for s, m := range g.coverage {
		mm := make(map[string]ClassCount, len(m))
		for cls, c := range m {
			mm[cls] = c
		}
		a.Coverage[s] = mm
	}
	for s, o := range g.ops {
		a.Ops[s] = o
	}
	if g.yield != nil {
		a.Yield = make(map[string]*YieldStats, len(g.yield))
		for s, y := range g.yield {
			a.Yield[s] = y.clone()
		}
		a.YieldTotal = g.yieldTotal.clone()
	}
	if g.added > 0 {
		a.Cells = make([]CellResult, 0, g.added)
		for i, ok := range g.filled {
			if ok {
				a.Cells = append(a.Cells, g.slots[i])
			}
		}
	}
	return a
}

// clone returns a deep copy of the stats.
func (y *YieldStats) clone() *YieldStats {
	c := *y
	if y.ByDiagClass != nil {
		c.ByDiagClass = make(map[string]int, len(y.ByDiagClass))
		for cls, n := range y.ByDiagClass {
			c.ByDiagClass[cls] = n
		}
	}
	return &c
}
