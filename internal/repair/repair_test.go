package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/diagnose"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
)

func site(addr, bit int) diagnose.SiteEvidence {
	return diagnose.SiteEvidence{Addr: addr, Bit: bit, Count: 1}
}

func TestSingleCellUsesOneSpare(t *testing.T) {
	plan, err := Allocate([]diagnose.SiteEvidence{site(3, 5)}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable {
		t.Fatal("single cell should be repairable")
	}
	if len(plan.Assignment.Rows)+len(plan.Assignment.Cols) != 1 {
		t.Fatalf("used more than one spare: %+v", plan.Assignment)
	}
	if !Covers(plan.Assignment, []diagnose.SiteEvidence{site(3, 5)}) {
		t.Fatal("plan does not cover the defect")
	}
}

func TestRowDefectForcesSpareRow(t *testing.T) {
	// Four cells in one word with only one spare column available: the
	// must-repair phase has to spend the spare row.
	sites := []diagnose.SiteEvidence{site(2, 0), site(2, 1), site(2, 2), site(2, 3)}
	plan, err := Allocate(sites, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable {
		t.Fatal("row defect with a spare row should be repairable")
	}
	if len(plan.Assignment.Rows) != 1 || plan.Assignment.Rows[0] != 2 {
		t.Fatalf("expected spare row at 2, got %+v", plan.Assignment)
	}
}

func TestColumnDefectForcesSpareColumn(t *testing.T) {
	sites := []diagnose.SiteEvidence{site(0, 6), site(1, 6), site(2, 6), site(3, 6)}
	plan, err := Allocate(sites, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || len(plan.Assignment.Cols) != 1 || plan.Assignment.Cols[0] != 6 {
		t.Fatalf("expected spare column at 6, got %+v", plan)
	}
}

func TestUnrepairablePattern(t *testing.T) {
	// A diagonal of 3 defects needs 3 spares in any mix; give 2.
	sites := []diagnose.SiteEvidence{site(0, 0), site(1, 1), site(2, 2)}
	plan, err := Allocate(sites, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Repairable {
		t.Fatal("diagonal of 3 with 2 spares should be unrepairable")
	}
	if len(plan.Uncovered) == 0 {
		t.Fatal("uncovered cells not reported")
	}
	if !strings.Contains(plan.String(), "unrepairable") {
		t.Fatalf("plan string: %s", plan.String())
	}
}

func TestZeroSpares(t *testing.T) {
	plan, err := Allocate([]diagnose.SiteEvidence{site(0, 0)}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Repairable {
		t.Fatal("no spares cannot repair anything")
	}
	if _, err := Allocate(nil, -1, 0); err == nil {
		t.Fatal("negative spares accepted")
	}
}

func TestEmptyDiagnosisNeedsNothing(t *testing.T) {
	plan, err := Allocate(nil, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || len(plan.Assignment.Rows)+len(plan.Assignment.Cols) != 0 {
		t.Fatalf("empty diagnosis should use no spares: %+v", plan)
	}
	if !strings.Contains(plan.String(), "repairable") {
		t.Fatal("plan string broken")
	}
}

// Property: whenever Allocate says repairable, the assignment really
// covers all sites and respects the spare budget.
func TestAllocatePropertyRandomPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(8)
		var sites []diagnose.SiteEvidence
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			k := [2]int{r.Intn(6), r.Intn(6)}
			if seen[k] {
				continue
			}
			seen[k] = true
			sites = append(sites, site(k[0], k[1]))
		}
		sr, sc := r.Intn(3), r.Intn(3)
		plan, err := Allocate(sites, sr, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Assignment.Rows) > sr || len(plan.Assignment.Cols) > sc {
			t.Fatalf("budget exceeded: %+v with %d/%d", plan.Assignment, sr, sc)
		}
		if plan.Repairable {
			if !Covers(plan.Assignment, sites) {
				t.Fatalf("claimed repairable but uncovered: %+v / %+v", plan.Assignment, sites)
			}
		} else if len(plan.Uncovered) == 0 {
			t.Fatal("unrepairable without uncovered cells")
		}
	}
}

// TestAllocateDeterministic pins the plan down under spare starvation:
// three must-repair rows compete for two spare rows, so a map-order
// dependent sweep would spend them on a different pair from run to
// run. The campaign yield pipeline's byte-identical aggregate
// guarantee rests on Allocate being a pure function of its inputs.
func TestAllocateDeterministic(t *testing.T) {
	sites := []diagnose.SiteEvidence{
		site(0, 0), site(0, 1),
		site(1, 0), site(1, 1),
		site(2, 0), site(2, 1),
	}
	first, err := Allocate(sites, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		plan, err := Allocate(sites, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Repairable != first.Repairable ||
			!equalInts(plan.Assignment.Rows, first.Assignment.Rows) ||
			!equalInts(plan.Assignment.Cols, first.Assignment.Cols) ||
			len(plan.Uncovered) != len(first.Uncovered) {
			t.Fatalf("trial %d diverged: %+v vs %+v", trial, plan, first)
		}
	}
	// Ascending-order sweep: rows 0 and 1 get the spare rows.
	if !equalInts(first.Assignment.Rows, []int{0, 1}) {
		t.Errorf("must-repair spent rows %v, want [0 1]", first.Assignment.Rows)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// End-to-end: BIST detects, diagnosis localizes, repair allocates —
// the full embedded self-repair pipeline.
func TestPipelineFromDiagnosis(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := memory.MustNew(16, 8)
	mem.Randomize(rand.New(rand.NewSource(2)))
	inj := faults.MustInject(mem, faults.StuckAt{Cell: faults.Site{Addr: 9, Bit: 4}, Value: 0})
	rep, err := diagnose.Locate(res.TWMarch, inj)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(rep.Sites, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable {
		t.Fatalf("single stuck cell should be repairable: %s", plan)
	}
	if !Covers(plan.Assignment, rep.Sites) {
		t.Fatal("plan does not cover the diagnosed cell")
	}
}

// allocateMap is the map-based allocator Allocate replaced, kept
// verbatim as the oracle for the dense implementation: equal inputs
// must give identical plans.
func allocateMap(sites []diagnose.SiteEvidence, spareRows, spareCols int) (*Plan, error) {
	if spareRows < 0 || spareCols < 0 {
		return nil, fmt.Errorf("repair: negative spare counts")
	}
	type cell struct{ row, col int }
	remaining := map[cell]diagnose.SiteEvidence{}
	for _, s := range sites {
		remaining[cell{s.Addr, s.Bit}] = s
	}
	plan := &Plan{Repairable: true}
	usedRows := map[int]bool{}
	usedCols := map[int]bool{}

	countByRow := func() map[int]int {
		m := map[int]int{}
		for c := range remaining {
			m[c.row]++
		}
		return m
	}
	countByCol := func() map[int]int {
		m := map[int]int{}
		for c := range remaining {
			m[c.col]++
		}
		return m
	}
	spendRow := func(row int) {
		usedRows[row] = true
		plan.Assignment.Rows = append(plan.Assignment.Rows, row)
		for c := range remaining {
			if c.row == row {
				delete(remaining, c)
			}
		}
		spareRows--
	}
	spendCol := func(col int) {
		usedCols[col] = true
		plan.Assignment.Cols = append(plan.Assignment.Cols, col)
		for c := range remaining {
			if c.col == col {
				delete(remaining, c)
			}
		}
		spareCols--
	}

	// Phase 1: must-repair fixed point. Candidates are visited in
	// ascending index order so that, when the spare budget runs out
	// mid-sweep, which lines got the spares is a pure function of the
	// input — Go's randomized map iteration must not leak into the plan.
	sortedKeys := func(m map[int]int) []int {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		return keys
	}
	for {
		changed := false
		byRow := countByRow()
		for _, row := range sortedKeys(byRow) {
			if byRow[row] > spareCols && spareRows > 0 && !usedRows[row] {
				spendRow(row)
				changed = true
			}
		}
		byCol := countByCol()
		for _, col := range sortedKeys(byCol) {
			if byCol[col] > spareRows && spareCols > 0 && !usedCols[col] {
				spendCol(col)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: greedy cover.
	for len(remaining) > 0 && (spareRows > 0 || spareCols > 0) {
		bestRow, bestRowN := -1, 0
		for row, n := range countByRow() {
			if n > bestRowN || (n == bestRowN && row < bestRow) {
				bestRow, bestRowN = row, n
			}
		}
		bestCol, bestColN := -1, 0
		for col, n := range countByCol() {
			if n > bestColN || (n == bestColN && col < bestCol) {
				bestCol, bestColN = col, n
			}
		}
		switch {
		case spareRows > 0 && (bestRowN >= bestColN || spareCols == 0):
			spendRow(bestRow)
		case spareCols > 0:
			spendCol(bestCol)
		}
	}

	if len(remaining) > 0 {
		plan.Repairable = false
		for _, s := range remaining {
			plan.Uncovered = append(plan.Uncovered, s)
		}
		sort.Slice(plan.Uncovered, func(i, j int) bool {
			if plan.Uncovered[i].Addr != plan.Uncovered[j].Addr {
				return plan.Uncovered[i].Addr < plan.Uncovered[j].Addr
			}
			return plan.Uncovered[i].Bit < plan.Uncovered[j].Bit
		})
	}
	sort.Ints(plan.Assignment.Rows)
	sort.Ints(plan.Assignment.Cols)
	return plan, nil
}

// TestAllocateMatchesMapOracle drives random site lists — repeated
// cells with differing evidence, negative and sparse coordinates,
// dense blocks — through Allocate and the map-based oracle and
// requires identical plans, and that every repairable plan covers its
// sites within the spare budget.
func TestAllocateMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := []struct {
		name       string
		rows, cols int
		maxSites   int
		offset     int
	}{
		{"dense", 4, 4, 12, 0},
		{"wide", 32, 16, 40, 0},
		{"sparse", 1 << 20, 64, 10, 0},
		{"negative", 6, 6, 14, -3},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 400; trial++ {
			n := r.Intn(sh.maxSites + 1)
			sites := make([]diagnose.SiteEvidence, n)
			for i := range sites {
				sites[i] = diagnose.SiteEvidence{
					Addr:  r.Intn(sh.rows) + sh.offset,
					Bit:   r.Intn(sh.cols) + sh.offset,
					Count: 1 + r.Intn(5),
					Reads: r.Intn(3) - 1,
				}
			}
			sr, sc := r.Intn(4), r.Intn(4)
			name := fmt.Sprintf("%s/%d: %d sites, %d+%d spares", sh.name, trial, n, sr, sc)
			got, err := Allocate(sites, sr, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := allocateMap(sites, sr, sc)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: plans differ\nsites:  %v\ndense:  %+v\noracle: %+v", name, sites, got, want)
			}
			if len(got.Assignment.Rows) > sr || len(got.Assignment.Cols) > sc {
				t.Fatalf("%s: budget exceeded: %+v", name, got.Assignment)
			}
			if got.Repairable && !Covers(got.Assignment, sites) {
				t.Fatalf("%s: repairable plan leaves sites uncovered: %+v", name, got.Assignment)
			}
		}
	}
}
