// Package repair allocates redundancy for a faulty embedded memory
// from a diagnosis report: given spare rows (word lines) and spare
// columns (bit lines), it decides which defective resources to
// replace. Built-in self-repair (BISR) sits directly downstream of the
// BIST diagnosis this library produces; the allocation problem is the
// classical spare-row/spare-column assignment (NP-hard in general;
// solved here with the standard must-repair reduction followed by a
// greedy cover, which is what hardware BISR state machines implement).
package repair

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"twmarch/internal/diagnose"
)

// Assignment is the chosen redundancy mapping.
type Assignment struct {
	// Rows lists word addresses replaced by spare rows.
	Rows []int
	// Cols lists bit positions replaced by spare columns.
	Cols []int
}

// Plan is the outcome of an allocation.
type Plan struct {
	Assignment Assignment
	// Repairable is false when the defect pattern exceeds the spares;
	// Uncovered then lists the cells left unrepaired.
	Repairable bool
	Uncovered  []diagnose.SiteEvidence
}

// String summarizes the plan.
func (p *Plan) String() string {
	if !p.Repairable {
		return fmt.Sprintf("unrepairable: %d cells uncovered (rows %v, cols %v assigned)",
			len(p.Uncovered), p.Assignment.Rows, p.Assignment.Cols)
	}
	return fmt.Sprintf("repairable: spare rows -> %v, spare columns -> %v",
		p.Assignment.Rows, p.Assignment.Cols)
}

// Allocate maps the suspect cells of a diagnosis onto the available
// spares. The algorithm is the textbook two-phase repair:
//
//  1. Must-repair: a row with more defective cells than the remaining
//     spare columns can only be fixed by a spare row, and vice versa;
//     iterate until stable.
//  2. Greedy cover: repeatedly spend whichever spare kind covers the
//     most remaining defects (ties prefer rows, the cheaper resource
//     in most embedded SRAM layouts).
//
// Allocate is deterministic: equal inputs produce the identical plan,
// with candidate rows and columns considered in ascending index order.
// The campaign yield pipeline depends on this for its byte-identical
// aggregate guarantee.
func Allocate(sites []diagnose.SiteEvidence, spareRows, spareCols int) (*Plan, error) {
	if spareRows < 0 || spareCols < 0 {
		return nil, fmt.Errorf("repair: negative spare counts")
	}
	a := allocators.Get().(*allocator)
	defer allocators.Put(a)
	a.load(sites)
	plan := &Plan{Repairable: true}
	spendRow := func(r int) {
		plan.Assignment.Rows = append(plan.Assignment.Rows, a.rows[r])
		a.clearRow(r)
		spareRows--
	}
	spendCol := func(c int) {
		plan.Assignment.Cols = append(plan.Assignment.Cols, a.cols[c])
		a.clearCol(c)
		spareCols--
	}

	// Phase 1: must-repair fixed point. Lines are swept in ascending
	// index order so that, when the spare budget runs out mid-sweep,
	// which lines got the spares is a pure function of the input. A
	// spent line has no defects left, so it never qualifies again.
	for {
		changed := false
		for r, n := range a.rowCount {
			if int(n) > spareCols && spareRows > 0 {
				spendRow(r)
				changed = true
			}
		}
		for c, n := range a.colCount {
			if int(n) > spareRows && spareCols > 0 {
				spendCol(c)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: greedy cover; ties go to the lowest index.
	for a.remaining > 0 && (spareRows > 0 || spareCols > 0) {
		bestRow, bestRowN := argmax(a.rowCount)
		bestCol, bestColN := argmax(a.colCount)
		switch {
		case spareRows > 0 && (bestRowN >= bestColN || spareCols == 0):
			spendRow(bestRow)
		case spareCols > 0:
			spendCol(bestCol)
		}
	}

	if a.remaining > 0 {
		// Cells are held in (Addr, Bit) order, so the uncovered list
		// comes out sorted.
		plan.Repairable = false
		plan.Uncovered = make([]diagnose.SiteEvidence, 0, a.remaining)
		for k, c := range a.cells {
			if a.live[k/64]>>(k%64)&1 != 0 {
				plan.Uncovered = append(plan.Uncovered, sites[c.site])
			}
		}
	}
	slices.Sort(plan.Assignment.Rows)
	slices.Sort(plan.Assignment.Cols)
	return plan, nil
}

// allocator is Allocate's scratch state: the distinct defective cells
// in dense (row, column) coordinates, with live per-row and per-column
// defect counts and a bitmap of the cells no spare covers yet. Row and
// column indices follow ascending address and bit order, so "lowest
// index" in the allocation rules is "lowest address/bit". Allocators
// are pooled: the campaign yield pipeline allocates once per detected
// fault.
type allocator struct {
	order      []int32 // site indices, stably sorted by (Addr, Bit)
	rows, cols []int   // distinct Addr and Bit values, ascending
	cells      []cellRef
	// cells[rowStart[r]:rowStart[r+1]] are the cells of row r.
	rowStart           []int32
	rowCount, colCount []int32
	live               []uint64 // bit k set while cells[k] is uncovered
	remaining          int
}

// cellRef is one distinct defective cell: its dense row and column and
// the index of the last input site naming it (a repeated cell keeps
// its last evidence).
type cellRef struct {
	row, col, site int32
}

var allocators = sync.Pool{New: func() any { return new(allocator) }}

// load rebuilds the scratch state for a site list.
func (a *allocator) load(sites []diagnose.SiteEvidence) {
	a.order = a.order[:0]
	for i := range sites {
		a.order = append(a.order, int32(i))
	}
	slices.SortStableFunc(a.order, func(i, j int32) int {
		si, sj := &sites[i], &sites[j]
		if c := cmp.Compare(si.Addr, sj.Addr); c != 0 {
			return c
		}
		return cmp.Compare(si.Bit, sj.Bit)
	})
	a.rows, a.cols, a.cells, a.rowStart = a.rows[:0], a.cols[:0], a.cells[:0], a.rowStart[:0]
	for k, i := range a.order {
		s := &sites[i]
		if k+1 < len(a.order) {
			if n := &sites[a.order[k+1]]; n.Addr == s.Addr && n.Bit == s.Bit {
				continue // a later site names the same cell
			}
		}
		if len(a.rows) == 0 || a.rows[len(a.rows)-1] != s.Addr {
			a.rows = append(a.rows, s.Addr)
			a.rowStart = append(a.rowStart, int32(len(a.cells)))
		}
		a.cells = append(a.cells, cellRef{row: int32(len(a.rows) - 1), site: i})
		a.cols = append(a.cols, s.Bit)
	}
	a.rowStart = append(a.rowStart, int32(len(a.cells)))
	slices.Sort(a.cols)
	a.cols = slices.Compact(a.cols)

	a.rowCount = resize(a.rowCount, len(a.rows))
	a.colCount = resize(a.colCount, len(a.cols))
	a.live = resize(a.live, (len(a.cells)+63)/64)
	for k := range a.cells {
		c := &a.cells[k]
		col, _ := slices.BinarySearch(a.cols, sites[c.site].Bit)
		c.col = int32(col)
		a.rowCount[c.row]++
		a.colCount[col]++
		a.live[k/64] |= 1 << (k % 64)
	}
	a.remaining = len(a.cells)
}

// clearRow covers every cell of row r.
func (a *allocator) clearRow(r int) {
	for k := a.rowStart[r]; k < a.rowStart[r+1]; k++ {
		a.cover(int(k))
	}
}

// clearCol covers every cell of column c.
func (a *allocator) clearCol(c int) {
	for k := range a.cells {
		if a.cells[k].col == int32(c) {
			a.cover(k)
		}
	}
}

// cover marks cells[k] repaired, if it was not already.
func (a *allocator) cover(k int) {
	if a.live[k/64]>>(k%64)&1 == 0 {
		return
	}
	a.live[k/64] &^= 1 << (k % 64)
	a.rowCount[a.cells[k].row]--
	a.colCount[a.cells[k].col]--
	a.remaining--
}

// argmax returns the index and value of the largest positive count,
// preferring the lowest index on ties (-1, 0 when every count is 0).
func argmax(counts []int32) (int, int) {
	best, bestN := -1, 0
	for i, n := range counts {
		if int(n) > bestN {
			best, bestN = i, int(n)
		}
	}
	return best, bestN
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Covers reports whether the plan's assignment repairs every given
// site (used to verify plans independently of how they were found).
func Covers(a Assignment, sites []diagnose.SiteEvidence) bool {
	rows := map[int]bool{}
	for _, r := range a.Rows {
		rows[r] = true
	}
	cols := map[int]bool{}
	for _, c := range a.Cols {
		cols[c] = true
	}
	for _, s := range sites {
		if !rows[s.Addr] && !cols[s.Bit] {
			return false
		}
	}
	return true
}
