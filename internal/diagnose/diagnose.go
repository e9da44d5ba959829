// Package diagnose turns the mismatch log of a failed march-test run
// into a fault-localization report: which bit cells are suspect, what
// the failure syndrome looks like, and which fault class it suggests.
//
// Embedded-memory BIST flows use exactly this kind of post-test
// analysis to drive repair (row/column replacement) and failure
// analysis — the diagnosis context of the authors' JETTA 2002 work the
// paper cites as [10]. The classification is heuristic but
// deliberately conservative: it names a single-cell class only when
// the whole syndrome is consistent with it.
package diagnose

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"twmarch/internal/march"
)

// SiteEvidence aggregates the mismatches observed at one bit cell.
type SiteEvidence struct {
	Addr, Bit int
	// Count is the number of failing reads involving this bit.
	Count int
	// Reads is the value the bit read on failures: 0, 1, or -1 when
	// both values were observed.
	Reads int
}

// String formats the evidence.
func (s SiteEvidence) String() string {
	v := "mixed"
	if s.Reads >= 0 {
		v = fmt.Sprintf("always %d", s.Reads)
	}
	return fmt.Sprintf("%d.%d: %d failing reads, %s", s.Addr, s.Bit, s.Count, v)
}

// Class is the diagnosed fault family.
type Class int

const (
	// NoFault: the run had no mismatches.
	NoFault Class = iota
	// StuckAtSuspect: one cell always reading one value.
	StuckAtSuspect
	// TransitionSuspect: one cell reading both values — consistent
	// with a failing transition or a dynamic (read-disturb) fault.
	TransitionSuspect
	// WordSuspect: several bits of a single word — consistent with a
	// word-line, port or decoder defect.
	WordSuspect
	// CouplingSuspect: cells across several words — consistent with
	// coupling between words or an address-decoder fault.
	CouplingSuspect
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case NoFault:
		return "no fault"
	case StuckAtSuspect:
		return "single-cell stuck-at"
	case TransitionSuspect:
		return "single-cell transition/dynamic"
	case WordSuspect:
		return "single-word (word-line/decoder)"
	case CouplingSuspect:
		return "multi-word (coupling/decoder)"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Report is the diagnosis of one failed run.
type Report struct {
	// Sites lists the suspect bit cells, most-failing first.
	Sites []SiteEvidence
	// Class is the suggested fault family.
	Class Class
	// StuckValue is the stuck polarity for StuckAtSuspect (else -1).
	StuckValue int
	// Truncated is set when the mismatch log was capped and the
	// diagnosis may therefore be incomplete.
	Truncated bool
}

// Addresses returns the distinct suspect word addresses in order.
func (r *Report) Addresses() []int {
	var out []int
	for _, s := range r.Sites {
		out = append(out, s.Addr)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Summary renders a one-paragraph diagnosis.
func (r *Report) Summary() string {
	if r.Class == NoFault {
		return "no fault: all reads matched"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "suspect class: %s", r.Class)
	if r.Class == StuckAtSuspect {
		fmt.Fprintf(&b, " (stuck-at-%d)", r.StuckValue)
	}
	fmt.Fprintf(&b, "; %d suspect cell(s):", len(r.Sites))
	for i, s := range r.Sites {
		if i == 4 {
			fmt.Fprintf(&b, " …")
			break
		}
		fmt.Fprintf(&b, " [%s]", s)
	}
	if r.Truncated {
		fmt.Fprintf(&b, " (mismatch log capped; diagnosis may be partial)")
	}
	return b.String()
}

// Analyze builds a diagnosis from an executed run. The width is the
// memory word width the test ran at.
//
// Evidence accumulates in a dense table with one slot per (failing
// address, bit): the failing addresses are collected in ascending
// order first, so the slots are already in (Addr, Bit) order and the
// report needs no hashing and only a sort by failure count.
func Analyze(res march.Result, width int) *Report {
	if res.MismatchCount == 0 {
		return &Report{Class: NoFault, StuckValue: -1}
	}
	var addrBuf [8]int
	addrs := addrBuf[:0]
	for _, m := range res.Mismatches {
		if i, found := slices.BinarySearch(addrs, m.Addr); !found {
			addrs = slices.Insert(addrs, i, m.Addr)
		}
	}
	var accBuf [64]SiteEvidence
	acc := accBuf[:0]
	if n := len(addrs) * width; n <= len(accBuf) {
		acc = accBuf[:n]
	} else {
		acc = make([]SiteEvidence, n)
	}
	nSites := 0
	for _, m := range res.Mismatches {
		a, _ := slices.BinarySearch(addrs, m.Addr)
		slots := acc[a*width : (a+1)*width]
		diff := m.Got.Xor(m.Want).Mask(width)
		for half, x := range [2]uint64{diff.Lo, diff.Hi} {
			for ; x != 0; x &= x - 1 {
				b := 64*half + bits.TrailingZeros64(x)
				ev := &slots[b]
				got := m.Got.Bit(b)
				if ev.Count == 0 {
					*ev = SiteEvidence{Addr: m.Addr, Bit: b, Reads: got}
					nSites++
				} else if ev.Reads >= 0 && ev.Reads != got {
					ev.Reads = -1
				}
				ev.Count++
			}
		}
	}
	rep := &Report{
		StuckValue: -1,
		Truncated:  res.MismatchCount > len(res.Mismatches),
	}
	nAddrs := 0
	if nSites > 0 {
		rep.Sites = make([]SiteEvidence, 0, nSites)
		for i := range acc {
			if acc[i].Count == 0 {
				continue
			}
			if len(rep.Sites) == 0 || rep.Sites[len(rep.Sites)-1].Addr != acc[i].Addr {
				nAddrs++
			}
			rep.Sites = append(rep.Sites, acc[i])
		}
	}
	// Most-failing first; the slots' (Addr, Bit) order breaks ties.
	slices.SortStableFunc(rep.Sites, func(a, b SiteEvidence) int { return cmp.Compare(b.Count, a.Count) })

	switch {
	case len(rep.Sites) == 1 && rep.Sites[0].Reads >= 0:
		rep.Class = StuckAtSuspect
		rep.StuckValue = rep.Sites[0].Reads
	case len(rep.Sites) == 1:
		rep.Class = TransitionSuspect
	case nAddrs == 1:
		rep.Class = WordSuspect
	default:
		rep.Class = CouplingSuspect
	}
	return rep
}

// Locate is a convenience that runs the test against the memory and
// analyzes the outcome in one call.
func Locate(t *march.Test, mem march.Mem) (*Report, error) {
	res, err := march.Run(t, mem, march.RunOptions{MaxMismatches: 4096})
	if err != nil {
		return nil, err
	}
	return Analyze(res, t.Width), nil
}
