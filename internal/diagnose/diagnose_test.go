package diagnose

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/word"
)

func twmarchFor(t *testing.T, width int) *march.Test {
	t.Helper()
	res, err := core.TWMTA(march.MustLookup("March C-"), width)
	if err != nil {
		t.Fatal(err)
	}
	return res.TWMarch
}

func TestNoFault(t *testing.T) {
	tst := twmarchFor(t, 8)
	mem := memory.MustNew(8, 8)
	mem.Randomize(rand.New(rand.NewSource(1)))
	rep, err := Locate(tst, mem)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != NoFault {
		t.Fatalf("clean memory diagnosed as %v", rep.Class)
	}
	if !strings.Contains(rep.Summary(), "no fault") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

// Every stuck-at fault must be localized to its exact cell with the
// correct polarity.
func TestStuckAtLocalization(t *testing.T) {
	tst := twmarchFor(t, 4)
	for _, f := range faults.EnumerateStuckAt(4, 4) {
		sa := f.(faults.StuckAt)
		mem := memory.MustNew(4, 4)
		mem.Randomize(rand.New(rand.NewSource(7)))
		inj := faults.MustInject(mem, sa)
		rep, err := Locate(tst, inj)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Class != StuckAtSuspect {
			t.Errorf("%s diagnosed as %v", sa, rep.Class)
			continue
		}
		if rep.StuckValue != sa.Value {
			t.Errorf("%s: polarity %d", sa, rep.StuckValue)
		}
		if len(rep.Sites) != 1 || rep.Sites[0].Addr != sa.Cell.Addr || rep.Sites[0].Bit != sa.Cell.Bit {
			t.Errorf("%s localized to %v", sa, rep.Sites)
		}
	}
}

// Transition faults localize to the cell and classify as
// transition/dynamic (the cell reads both values across the run).
func TestTransitionLocalization(t *testing.T) {
	tst := twmarchFor(t, 4)
	hits := 0
	for _, f := range faults.EnumerateTransition(3, 4) {
		tf := f.(faults.Transition)
		mem := memory.MustNew(3, 4)
		mem.Randomize(rand.New(rand.NewSource(3)))
		inj := faults.MustInject(mem, tf)
		rep, err := Locate(tst, inj)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Class == NoFault {
			t.Errorf("%s not detected", tf)
			continue
		}
		// The faulty cell must always be among the suspects.
		found := false
		for _, s := range rep.Sites {
			if s.Addr == tf.Cell.Addr && s.Bit == tf.Cell.Bit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not among suspects %v", tf, rep.Sites)
		}
		if rep.Class == TransitionSuspect || rep.Class == StuckAtSuspect {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no transition fault classified as single-cell")
	}
}

// Inter-word coupling produces multi-address evidence.
func TestCouplingClassification(t *testing.T) {
	tst := twmarchFor(t, 4)
	cf := faults.Coupling{
		Model:     faults.CFin,
		Aggressor: faults.Site{Addr: 0, Bit: 1},
		Victim:    faults.Site{Addr: 2, Bit: 3},
		// Rising trigger.
		AggrTrigger: 1,
	}
	mem := memory.MustNew(4, 4)
	mem.Randomize(rand.New(rand.NewSource(4)))
	inj := faults.MustInject(mem, cf)
	rep, err := Locate(tst, inj)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class == NoFault {
		t.Fatal("CFin not detected")
	}
	// The victim must be a suspect.
	found := false
	for _, s := range rep.Sites {
		if s.Addr == 2 && s.Bit == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim not among suspects: %v", rep.Sites)
	}
}

// A word-level decoder fault yields multi-bit single- or multi-address
// evidence, never a single-cell class.
func TestDecoderFaultClassification(t *testing.T) {
	tst := twmarchFor(t, 8)
	mem := memory.MustNew(4, 8)
	mem.Randomize(rand.New(rand.NewSource(5)))
	inj := faults.MustInject(mem, faults.AddrAlias{From: 1, To: 3})
	rep, err := Locate(tst, inj)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class == NoFault || rep.Class == StuckAtSuspect || rep.Class == TransitionSuspect {
		t.Fatalf("decoder fault classified as %v", rep.Class)
	}
	if len(rep.Addresses()) == 0 {
		t.Fatal("no suspect addresses")
	}
}

func TestSummaryAndStrings(t *testing.T) {
	tst := twmarchFor(t, 4)
	mem := memory.MustNew(4, 4)
	mem.Randomize(rand.New(rand.NewSource(6)))
	inj := faults.MustInject(mem, faults.StuckAt{Cell: faults.Site{Addr: 2, Bit: 0}, Value: 1})
	rep, err := Locate(tst, inj)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"stuck-at-1", "2.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
	if StuckAtSuspect.String() == "" || Class(99).String() == "" {
		t.Error("class strings broken")
	}
	if (SiteEvidence{Addr: 1, Bit: 2, Count: 3, Reads: -1}).String() == "" {
		t.Error("site string broken")
	}
}

func TestAnalyzeEmptyRun(t *testing.T) {
	rep := Analyze(march.Result{}, 8)
	if rep.Class != NoFault || rep.StuckValue != -1 {
		t.Fatal("empty run misdiagnosed")
	}
}

func TestTruncationFlag(t *testing.T) {
	res := march.Result{MismatchCount: 500}
	// Only 2 recorded of 500.
	res.Mismatches = []march.Mismatch{
		{Addr: 0, Got: wordOf(1), Want: wordOf(0)},
		{Addr: 0, Got: wordOf(1), Want: wordOf(0)},
	}
	rep := Analyze(res, 1)
	if !rep.Truncated {
		t.Fatal("truncation not flagged")
	}
	if !strings.Contains(rep.Summary(), "capped") {
		t.Fatal("summary does not mention the cap")
	}
}

func wordOf(v uint64) word.Word { return word.FromUint64(v) }

// analyzeMap is the map-based Analyze the dense accumulator replaced,
// kept verbatim (Addresses inlined) as the oracle for the dense
// implementation.
func analyzeMap(res march.Result, width int) *Report {
	if res.MismatchCount == 0 {
		return &Report{Class: NoFault, StuckValue: -1}
	}
	type key struct{ addr, bit int }
	acc := map[key]*SiteEvidence{}
	for _, m := range res.Mismatches {
		diff := m.Got.Xor(m.Want)
		for b := 0; b < width; b++ {
			if diff.Bit(b) == 0 {
				continue
			}
			k := key{m.Addr, b}
			ev, ok := acc[k]
			if !ok {
				ev = &SiteEvidence{Addr: m.Addr, Bit: b, Reads: m.Got.Bit(b)}
				acc[k] = ev
			} else if ev.Reads >= 0 && ev.Reads != m.Got.Bit(b) {
				ev.Reads = -1
			}
			ev.Count++
		}
	}
	rep := &Report{
		StuckValue: -1,
		Truncated:  res.MismatchCount > len(res.Mismatches),
	}
	for _, ev := range acc {
		rep.Sites = append(rep.Sites, *ev)
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		if rep.Sites[i].Count != rep.Sites[j].Count {
			return rep.Sites[i].Count > rep.Sites[j].Count
		}
		if rep.Sites[i].Addr != rep.Sites[j].Addr {
			return rep.Sites[i].Addr < rep.Sites[j].Addr
		}
		return rep.Sites[i].Bit < rep.Sites[j].Bit
	})

	seen := map[int]bool{}
	var addrs []int
	for _, s := range rep.Sites {
		if !seen[s.Addr] {
			seen[s.Addr] = true
			addrs = append(addrs, s.Addr)
		}
	}
	switch {
	case len(rep.Sites) == 1 && rep.Sites[0].Reads >= 0:
		rep.Class = StuckAtSuspect
		rep.StuckValue = rep.Sites[0].Reads
	case len(rep.Sites) == 1:
		rep.Class = TransitionSuspect
	case len(addrs) == 1:
		rep.Class = WordSuspect
	default:
		rep.Class = CouplingSuspect
	}
	return rep
}

// TestAnalyzeMatchesMapOracle feeds random mismatch logs — repeated
// and interleaved addresses, flipped and mixed read values, capped
// logs, negative and sparse addresses, every width class — through
// Analyze and the map-based oracle and requires identical reports.
func TestAnalyzeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randWord := func(width int) word.Word {
		w := word.Word{Lo: r.Uint64(), Hi: r.Uint64()}
		return w.Mask(width)
	}
	for trial := 0; trial < 2000; trial++ {
		width := []int{1, 4, 8, 16, 64, 100, 128}[r.Intn(7)]
		addrSpan := []int{1, 3, 16, 1 << 20}[r.Intn(4)]
		offset := 0
		if r.Intn(4) == 0 {
			offset = -addrSpan / 2
		}
		var res march.Result
		for i, n := 0, r.Intn(12); i < n; i++ {
			want := randWord(width)
			got := want
			switch r.Intn(3) {
			case 0: // one flipped bit
				got = want.FlipBit(r.Intn(width))
			case 1: // arbitrary corruption
				got = randWord(width)
			}
			res.Mismatches = append(res.Mismatches, march.Mismatch{Addr: r.Intn(addrSpan) + offset, Got: got, Want: want})
		}
		res.MismatchCount = len(res.Mismatches) + r.Intn(2)
		name := fmt.Sprintf("trial %d width %d", trial, width)
		got, want := Analyze(res, width), analyzeMap(res, width)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reports differ\nlog:    %+v\ndense:  %+v\noracle: %+v", name, res, got, want)
		}
	}
}
