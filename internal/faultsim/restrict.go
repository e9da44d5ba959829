package faultsim

// Address-restricted lane replay.
//
// Every lane hook reads and writes only the planes of the words its
// fault names (see pack), and a march operation's datum at a word
// depends only on that word's own snapshot. A word no fault of the
// chunk mentions therefore holds the fault-free contents in all 64
// lanes at every step, and its reads return the fault-free value. The
// restricted replay walks only the schedule steps at the touched words,
// in schedule order:
//
//   - DirectCompare: untouched reads cannot tell the lanes apart. If
//     the fault-free comparator replay mismatches at an untouched word,
//     every active lane detects (Reference.ffBad); otherwise the
//     verdicts come from the touched steps alone.
//   - Signature: the MISR is linear over GF(2) from the zero seed, so a
//     lane's signature is the fault-free signature XOR the MISR of its
//     deviation stream (lane feed XOR fault-free feed). The deviation
//     is zero on untouched reads; those clocks only advance the
//     deviation register (devReg), and not at all while it is zero.
//     This needs the untouched words to start the test pass at their
//     initial contents, that is, a prediction pass with no writes
//     (Reference.predReadOnly).
//   - Syndrome: as DirectCompare, but every lane needs its log, so an
//     untouched fault-free mismatch sends the chunk to the full replay.
//
// A chunk is restricted when every fault has a modeled type and it
// touches at most half the words; every other chunk replays the whole
// schedule as one run. The cutoff is measured: at half the words the
// restricted replay took 0.6–1.15× the full replay's time on W2–W32
// geometries, and break-even was near three quarters
// (docs/PERFORMANCE.md).

import (
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/word"
)

// stepRun is a maximal block [start, end) of consecutive schedule steps
// at one address addr; clock is the number of reads before start.
type stepRun struct {
	start, end, clock, addr int32
}

// runIndex lists a schedule's step runs twice: all of them in schedule
// order, and each address's own in schedule order (sharing one backing
// array).
type runIndex struct {
	all    []stepRun
	byAddr [][]stepRun
}

// indexRuns splits a schedule into its step runs.
func indexRuns(sched []refOp, words int) runIndex {
	count := make([]int, words)
	n := 0
	for i := range sched {
		if i == 0 || sched[i].addr != sched[i-1].addr {
			count[sched[i].addr]++
			n++
		}
	}
	idx := runIndex{all: make([]stepRun, 0, n), byAddr: make([][]stepRun, words)}
	back := make([]stepRun, 0, n)
	for a, c := range count {
		idx.byAddr[a] = back[len(back) : len(back) : len(back)+c]
		back = back[:len(back)+c]
	}
	clock := int32(0)
	for i := 0; i < len(sched); {
		a := sched[i].addr
		run := stepRun{start: int32(i), clock: clock, addr: int32(a)}
		for ; i < len(sched) && sched[i].addr == a; i++ {
			if sched[i].kind != march.Write {
				clock++
			}
		}
		run.end = int32(i)
		idx.all = append(idx.all, run)
		idx.byAddr[a] = append(idx.byAddr[a], run)
	}
	return idx
}

// selectRuns appends to dst, in schedule order, the runs of the words
// ar touches, fusing runs that abut. Merging the touched words' own
// run lists costs O(k) per selected run for k touched words; scanning
// every run costs one test per run. The merge is used while k*k is at
// most the word count, where it is the cheaper of the two.
func (ar *laneArena) selectRuns(dst []stepRun, idx *runIndex) []stepRun {
	addrs := ar.touched
	if len(addrs)*len(addrs) > len(idx.byAddr) {
		for _, run := range idx.all {
			if !ar.inT[run.addr] {
				continue
			}
			if k := len(dst) - 1; k >= 0 && dst[k].end == run.start {
				dst[k].end = run.end
				continue
			}
			dst = append(dst, run)
		}
		return dst
	}
	heads := ar.heads[:len(addrs)]
	clear(heads)
	for {
		best, start := -1, int32(0)
		for j, a := range addrs {
			if h := int(heads[j]); h < len(idx.byAddr[a]) && (best < 0 || idx.byAddr[a][h].start < start) {
				best, start = j, idx.byAddr[a][h].start
			}
		}
		if best < 0 {
			return dst
		}
		run := idx.byAddr[addrs[best]][heads[best]]
		heads[best]++
		if k := len(dst) - 1; k >= 0 && dst[k].end == run.start {
			dst[k].end = run.end
			continue
		}
		dst = append(dst, run)
	}
}

// comparatorMismatches replays the test schedule on the fault-free
// memory in comparator view and lists the addresses with a failing
// read (none for a well-formed transparent test).
func (r *Reference) comparatorMismatches() []int32 {
	mem := append([]word.Word(nil), r.initial...)
	bad := make([]bool, r.words)
	var out []int32
	for _, op := range r.sched {
		val := op.val
		if op.transparent {
			val = r.initial[op.addr].Xor(op.eff)
		}
		if op.kind == march.Write {
			mem[op.addr] = val
			continue
		}
		if mem[op.addr] != val && !bad[op.addr] {
			bad[op.addr] = true
			out = append(out, int32(op.addr))
		}
	}
	return out
}

// signatureRows tabulates the signature-mode lane constants in one
// allocation: each pass's fault-free read rows per clock (predRaw,
// testRaw: row k*width+b is bit b of the k-th fault-free read in all
// lanes) and the broadcast difference of the two fault-free signatures
// (sigDiff). Prediction feeds carry the read's XOR mask, which is
// undone here, so in either pass a lane's deviation at clock k is its
// read row XOR the pass's row k.
func (r *Reference) signatureRows() {
	w := r.width
	np, nt := len(r.predFeeds)*w, len(r.testFeeds)*w
	back := make([]uint64, np+nt+w)
	r.predRaw, r.testRaw, r.sigDiff = back[:np:np], back[np:np+nt:np+nt], back[np+nt:]
	k := 0
	for _, op := range r.predSched {
		if op.kind == march.Read {
			broadcastWord(r.predRaw[k*w:(k+1)*w], r.predFeeds[k].Xor(op.eff))
			k++
		}
	}
	for k, f := range r.testFeeds {
		broadcastWord(r.testRaw[k*w:(k+1)*w], f)
	}
	broadcastWord(r.sigDiff, r.predStates[len(r.predFeeds)].Xor(r.testStates[len(r.testFeeds)]))
}

// broadcastWord sets rows[b] to bit b of v in all 64 lanes.
func broadcastWord(rows []uint64, v word.Word) {
	memory.BroadcastPlanes(rows, []word.Word{v}, len(rows))
}

// buildRestriction builds the tables only the restricted replay reads.
func (r *Reference) buildRestriction() {
	r.testRuns = indexRuns(r.sched, r.words)
	if r.mode == Signature {
		r.predRuns = indexRuns(r.predSched, r.words)
	}
	r.ffBad = r.comparatorMismatches()
}

// touch adds addr to the chunk's touched set.
func (ar *laneArena) touch(addr int) {
	if !ar.inT[addr] {
		ar.inT[addr] = true
		ar.touched = append(ar.touched, int32(addr))
	}
}

// restrictable reports whether the packed chunk may replay only the
// steps at its touched words.
func (r *Reference) restrictable(ar *laneArena) bool {
	return len(ar.slow) == 0 && len(ar.touched) <= r.maxTouched
}

// mismatchOutside reports whether the fault-free comparator replay
// fails a read at a word the chunk does not touch.
func (r *Reference) mismatchOutside(ar *laneArena) bool {
	r.restrictOnce.Do(r.buildRestriction)
	for _, a := range r.ffBad {
		if !ar.inT[a] {
			return true
		}
	}
	return false
}

// devReg is the plane-wise MISR of one pass's deviation stream, held
// in a sliding window so a clock costs O(taps) instead of a width-long
// shift: register bit b of all 64 lanes is buf[base+b], and each clock
// moves base down one slot (buf has room for every clock of the pass).
type devReg struct {
	buf []uint64
	// base counts the clocks still to apply; width is the register
	// width. nonzero records that the register may be nonzero: while
	// it is zero, clocks are no-ops and are skipped.
	base, width int
	nonzero     bool
}

// reset loads the zero seed for a pass of clocks feeds.
func (d *devReg) reset(clocks int) {
	d.base, d.nonzero = clocks, false
	clear(d.buf[clocks : clocks+d.width])
}

// shift clocks the register once with no input (Galois step): the
// slot leaving at bit width-1 re-enters at bit 0 and at the taps.
func (d *devReg) shift(r *Reference) {
	d.base--
	b := d.base
	msb := d.buf[b+d.width]
	d.buf[b] = msb & r.tap0
	for _, t := range r.taps {
		d.buf[b+t] ^= msb
	}
}

// advance applies zero feeds until clocks remain.
func (d *devReg) advance(r *Reference, remain int) {
	if !d.nonzero {
		d.base = remain
		clear(d.buf[remain : remain+d.width])
		return
	}
	for d.base > remain {
		d.shift(r)
	}
}

// feed applies the deviation of a read with remain clocks left after
// it: raw is the lane read row, ff the fault-free read row.
func (d *devReg) feed(r *Reference, remain int, raw, ff []uint64) {
	d.advance(r, remain+1)
	d.shift(r)
	win := d.buf[d.base : d.base+d.width]
	var any uint64
	for b := range win {
		x := raw[b] ^ ff[b]
		win[b] ^= x
		any |= x
	}
	d.nonzero = d.nonzero || any != 0
}

// bit returns register bit b across all lanes.
func (d *devReg) bit(b int) uint64 { return d.buf[d.base+b] }
