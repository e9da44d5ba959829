package faultsim

// Syndrome replays: the diagnostic pass on the fast tiers.
//
// Detection only needs one bit per fault; diagnosis needs the whole
// comparator-view mismatch log of a run that never stops early — the
// failure syndrome internal/diagnose localizes faults from. Syndrome
// (faultsim.go) is the naive oracle: fresh memory plus march.Run per
// fault. Reference.Syndrome replays the compiled schedule on the pooled
// scalar arena, and Reference.SyndromeLane replays it across 64 packed
// machines at once, logging mismatches only for the lanes the caller
// asks for. All three produce identical march.Result values; the
// equivalence suite in syndrome_test.go asserts it over the full fault
// catalog.

import (
	"fmt"
	"math/bits"

	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// defaultMaxMismatches mirrors march.Run's mismatch-log cap for
// RunOptions.MaxMismatches == 0.
const defaultMaxMismatches = 256

// mismatchCap resolves a caller's cap the way march.Run does.
func mismatchCap(maxMismatches int) int {
	if maxMismatches == 0 {
		return defaultMaxMismatches
	}
	return maxMismatches
}

// emptySyndrome returns the counts of one full diagnostic pass with an
// empty log, reusing buf's storage for the log.
func (r *Reference) emptySyndrome(buf []march.Mismatch) march.Result {
	return march.Result{Ops: len(r.sched), Reads: r.reads, Writes: r.writes, Mismatches: buf[:0]}
}

// logMismatch counts one failing read of schedule step i and records
// it while the log is under limit.
func (r *Reference) logMismatch(res *march.Result, limit, i int, got, want word.Word) {
	res.MismatchCount++
	if len(res.Mismatches) < limit {
		res.Mismatches = append(res.Mismatches, march.Mismatch{
			Element: int(r.pos[i].element), OpIndex: int(r.pos[i].opIndex),
			Addr: r.sched[i].addr, Got: got, Want: want,
		})
	}
}

// Syndrome runs the diagnostic pass for one fault on a pooled arena: a
// comparator-view replay of the test schedule with no early exit,
// logging up to maxMismatches failing reads (0 means march.Run's
// default cap). The result equals faultsim.Syndrome on the equivalent
// Campaign — counts, log and error message — in either detection mode:
// the diagnostic pass is a comparator run even when the campaign
// detects by signature. Safe for concurrent use.
func (r *Reference) Syndrome(f faults.Fault, maxMismatches int) (march.Result, error) {
	ar := r.pool.Get().(*arena)
	defer r.pool.Put(ar)
	if err := ar.mem.Restore(r.initial); err != nil {
		return march.Result{}, err
	}
	inj, err := faults.Inject(ar.mem, f)
	if err != nil {
		return march.Result{}, err
	}
	limit := mismatchCap(maxMismatches)
	res := r.emptySyndrome(nil)
	snap := r.snapshot(ar, inj)
	for i, op := range r.sched {
		val := op.val
		if op.transparent {
			val = snap[op.addr].Xor(op.eff)
		}
		if op.kind == march.Write {
			inj.Write(op.addr, val)
			continue
		}
		if got := inj.Read(op.addr); got != val {
			r.logMismatch(&res, limit, i, got, val)
		}
	}
	return res, nil
}

// SyndromeLane runs the diagnostic pass for up to LaneWidth faults in
// one bit-parallel replay. For every lane i set in want (bits at or
// beyond len(fs) are ignored), out[i] receives what Syndrome(fs[i],
// maxMismatches) returns; its mismatch log reuses out[i].Mismatches'
// storage, so a caller that recycles out across chunks allocates only
// when a log outgrows its predecessor. Entries of out outside want are
// left untouched. Every lane replays the whole schedule — no early
// exit, no lane retired — and faults the packer does not model fall
// back to the scalar Syndrome. Invalid faults fail the call with
// DetectLane's error. A chunk restricted as in DetectLane replays only
// the steps at its touched words, unless the fault-free comparator
// replay fails a read at an untouched word (that read would belong in
// every lane's log). Safe for concurrent use.
func (r *Reference) SyndromeLane(fs []faults.Fault, want uint64, maxMismatches int, out []march.Result) error {
	if len(fs) > LaneWidth {
		return fmt.Errorf("faultsim: lane capacity is %d faults, got %d", LaneWidth, len(fs))
	}
	if len(out) < len(fs) {
		return fmt.Errorf("faultsim: syndrome output holds %d results, need %d", len(out), len(fs))
	}
	if len(fs) < LaneWidth {
		want &= uint64(1)<<uint(len(fs)) - 1
	}
	ar := r.lanePool.Get().(*laneArena)
	if err := ar.packChunk(r, fs); err != nil {
		ar.release(r, false)
		r.lanePool.Put(ar)
		return err
	}
	for m := want; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		out[i] = r.emptySyndrome(out[i].Mismatches)
	}
	full := false
	if lanes := want & ar.active; lanes != 0 {
		sp := r.fullTest
		full = true
		if r.restrictable(ar) && !r.mismatchOutside(ar) {
			r.restrict(ar)
			sp, full = ar.span(&r.testRuns, &ar.testRuns), false
		}
		r.replaySyndromeLane(ar, sp, lanes, mismatchCap(maxMismatches), out)
	}
	var err error
	for _, i := range ar.slow {
		if want>>uint(i)&1 == 0 {
			continue
		}
		res, serr := r.Syndrome(fs[i], maxMismatches)
		if serr != nil {
			err = fmt.Errorf("faultsim: %s: %v", fs[i], serr)
			break
		}
		out[i] = res
	}
	ar.release(r, full)
	r.lanePool.Put(ar)
	return err
}

// replaySyndromeLane is the comparator-view lane replay of sp behind
// SyndromeLane: replayDirectLane without the early exit, where each
// read's mismatch row is walked lane by lane for the lanes in want.
// Expected values are evaluated on each lane's own snapshot, exactly as
// march.Run evaluates them on its run's snapshot.
func (r *Reference) replaySyndromeLane(ar *laneArena, sp laneSpan, want uint64, limit int, out []march.Result) {
	w := r.width
	r.snapshotLane(ar, sp.addrs)
	for _, run := range sp.runs {
		for i := int(run.start); i < int(run.end); i++ {
			op := &r.laneSched[i]
			if op.kind == march.Write {
				ar.commit(w, op)
				continue
			}
			for mm := ar.mismatch(w, op) & want; mm != 0; mm &= mm - 1 {
				lane := uint(bits.TrailingZeros64(mm))
				exp := r.sched[i].val
				if op.transparent {
					exp = laneWord(ar.snap[op.base:op.base+w], lane).Xor(r.sched[i].eff)
				}
				r.logMismatch(&out[lane], limit, i, laneWord(ar.rawRow[:w], lane), exp)
			}
		}
	}
}

// laneWord gathers lane machine `lane`'s word out of per-bit lane rows:
// bit b of the result is bit `lane` of rows[b].
func laneWord(rows []uint64, lane uint) word.Word {
	var v word.Word
	for b, row := range rows {
		if bit := row >> lane & 1; b < 64 {
			v.Lo |= bit << uint(b)
		} else {
			v.Hi |= bit << uint(b-64)
		}
	}
	return v
}
