package faultsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"twmarch/internal/faults"
	"twmarch/internal/march"
)

// sameSyndrome compares two diagnostic results field by field. An
// empty log compares equal whether it is nil or a recycled zero-length
// slice — SyndromeLane keeps the caller's storage.
func sameSyndrome(a, b march.Result) bool {
	if len(a.Mismatches) == 0 {
		a.Mismatches = nil
	}
	if len(b.Mismatches) == 0 {
		b.Mismatches = nil
	}
	return reflect.DeepEqual(a, b)
}

// laneSyndromes runs a list through SyndromeLane in LaneWidth chunks
// with every lane wanted. One output buffer is recycled across chunks,
// the way the campaign pipeline uses it, so each chunk's logs are
// copied out before the next chunk overwrites them.
func laneSyndromes(t *testing.T, ref *Reference, list []faults.Fault, maxMismatches int) []march.Result {
	t.Helper()
	out := make([]march.Result, len(list))
	buf := make([]march.Result, LaneWidth)
	for start := 0; start < len(list); start += LaneWidth {
		end := min(start+LaneWidth, len(list))
		if err := ref.SyndromeLane(list[start:end], ^uint64(0), maxMismatches, buf); err != nil {
			t.Fatalf("SyndromeLane[%d:%d]: %v", start, end, err)
		}
		for j := start; j < end; j++ {
			res := buf[j-start]
			res.Mismatches = append([]march.Mismatch(nil), res.Mismatches...)
			out[j] = res
		}
	}
	return out
}

// The syndrome oracle tower: the naive Syndrome, the scalar
// Reference.Syndrome and the 64-lane SyndromeLane must return the same
// march.Result — counts, mismatch log, truncation — for every fault
// model in the library, on every equivalence configuration in both
// detection modes. Cap 0 takes march.Run's default log cap; cap 3
// truncates most multi-read syndromes, so MismatchCount must stay
// exact past the cap.
func TestSyndromeTiersFullCatalog(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		list := fullCatalog(c.Words, c.Width)
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 3} {
			lane := laneSyndromes(t, ref, list, limit)
			truncated := 0
			for i, f := range list {
				naive, err := Syndrome(c, f, limit)
				if err != nil {
					t.Fatalf("naive %s: %v", f, err)
				}
				scalar, err := ref.Syndrome(f, limit)
				if err != nil {
					t.Fatalf("scalar %s: %v", f, err)
				}
				if !reflect.DeepEqual(naive, scalar) {
					t.Errorf("%s %dx%d %v cap %d: fault %s: scalar syndrome differs:\nnaive:  %+v\nscalar: %+v",
						c.Test.Name, c.Words, c.Width, c.Mode, limit, f, naive, scalar)
				}
				if !sameSyndrome(naive, lane[i]) {
					t.Errorf("%s %dx%d %v cap %d: fault %s: lane syndrome differs:\nnaive: %+v\nlane:  %+v",
						c.Test.Name, c.Words, c.Width, c.Mode, limit, f, naive, lane[i])
				}
				if naive.MismatchCount > len(naive.Mismatches) {
					truncated++
				}
			}
			if limit == 3 && truncated == 0 {
				t.Errorf("%s %dx%d %v: cap 3 truncated no syndrome; the cap is not exercised",
					c.Test.Name, c.Words, c.Width, c.Mode)
			}
		}
	}
}

// SyndromeLane fills only the wanted lanes: the others keep whatever
// the caller left there, and bits beyond the chunk are ignored.
func TestSyndromeLaneWantMask(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	list := fullCatalog(c.Words, c.Width)[:40]
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := march.Result{Ops: -1}
	out := make([]march.Result, LaneWidth)
	for i := range out {
		out[i] = sentinel
	}
	const want = 0xaaaa_aaaa_aaaa_aaaa // odd lanes, including ones past the chunk
	if err := ref.SyndromeLane(list, want, 0, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if i >= len(list) || i%2 == 0 {
			if !reflect.DeepEqual(out[i], sentinel) {
				t.Errorf("lane %d outside want was overwritten: %+v", i, out[i])
			}
			continue
		}
		naive, err := Syndrome(c, list[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSyndrome(naive, out[i]) {
			t.Errorf("lane %d (%s): got %+v, want %+v", i, list[i], out[i], naive)
		}
	}
}

// Invalid faults report the same error on every tier: the per-fault
// tiers return the injection error itself, and the lane tier wraps it
// exactly as DetectLane and the batch Run paths do.
func TestSyndromeTiersInvalidFault(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	good := faults.StuckAt{Cell: faults.Site{Addr: 0, Bit: 0}, Value: 1}
	bad := faults.StuckAt{Cell: faults.Site{Addr: 99, Bit: 0}, Value: 1}
	_, naiveErr := Syndrome(c, bad, 0)
	if naiveErr == nil {
		t.Fatal("naive Syndrome accepted an out-of-range fault")
	}
	if _, err := ref.Syndrome(bad, 0); err == nil || err.Error() != naiveErr.Error() {
		t.Errorf("scalar error %v, want %v", err, naiveErr)
	}
	wantLane := fmt.Sprintf("faultsim: %s: %v", bad, naiveErr)
	out := make([]march.Result, 2)
	if err := ref.SyndromeLane([]faults.Fault{good, bad}, 1, 0, out); err == nil || err.Error() != wantLane {
		t.Errorf("lane error %v, want %s", err, wantLane)
	}
	if _, err := ref.DetectLane([]faults.Fault{good, bad}); err == nil || err.Error() != wantLane {
		t.Errorf("DetectLane error %v, want %s", err, wantLane)
	}
}

// SyndromeLane refuses chunks beyond LaneWidth and output buffers
// shorter than the chunk rather than silently truncating.
func TestSyndromeLaneCapacity(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	list := fullCatalog(c.Words, c.Width)
	if err := ref.SyndromeLane(list[:LaneWidth+1], ^uint64(0), 0, make([]march.Result, LaneWidth+1)); err == nil {
		t.Error("SyndromeLane accepted more than LaneWidth faults")
	}
	if err := ref.SyndromeLane(list[:8], ^uint64(0), 0, make([]march.Result, 7)); err == nil {
		t.Error("SyndromeLane accepted a short output buffer")
	}
	if err := ref.SyndromeLane(nil, ^uint64(0), 0, nil); err != nil {
		t.Errorf("empty chunk: %v", err)
	}
}

// SyndromeLane and Reference.Syndrome check arenas out of the
// Reference's pools, so concurrent calls must reproduce the serial
// results. Run under -race in CI.
func TestSyndromeConcurrent(t *testing.T) {
	c := equivalenceConfigs(t)[2]
	list := fullCatalog(c.Words, c.Width)
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	serial := laneSyndromes(t, ref, list, 5)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]march.Result, LaneWidth)
			for start := w * LaneWidth; start < len(list); start += workers * LaneWidth {
				end := min(start+LaneWidth, len(list))
				if err := ref.SyndromeLane(list[start:end], ^uint64(0), 5, out); err != nil {
					t.Error(err)
					return
				}
				for j := start; j < end; j++ {
					scalar, err := ref.Syndrome(list[j], 5)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameSyndrome(out[j-start], serial[j]) || !sameSyndrome(scalar, serial[j]) {
						t.Errorf("fault %s: concurrent results differ from serial", list[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
