package faultsim

import (
	"reflect"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
)

// FuzzDetectsFastVsNaive drives random (geometry, march test, scheme,
// seed, fault, mode) tuples through both simulation paths and requires
// identical verdicts. The seed corpus covers every fault class and
// both modes; the fuzzer then explores the configuration space.
func FuzzDetectsFastVsNaive(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), int64(1), uint16(0), false)
	f.Add(uint8(3), uint8(1), uint8(1), int64(7), uint16(40), true)
	f.Add(uint8(2), uint8(2), uint8(2), int64(42), uint16(97), true)
	f.Add(uint8(4), uint8(0), uint8(3), int64(-9), uint16(500), false)
	f.Add(uint8(5), uint8(2), uint8(4), int64(1<<40), uint16(9999), true)
	f.Add(uint8(2), uint8(1), uint8(5), int64(0), uint16(3), false)
	f.Fuzz(func(t *testing.T, wordsSel, widthSel, testSel uint8, seed int64, faultSel uint16, signature bool) {
		words := 2 + int(wordsSel)%3             // 2..4 words
		width := []int{2, 4, 8}[int(widthSel)%3] // power-of-two widths
		baseTests := []string{"MATS", "MATS+", "March C-", "March U"}
		base := march.MustLookup(baseTests[int(testSel)%len(baseTests)])
		var tst *march.Test
		if int(testSel)%2 == 0 {
			res, err := core.TWMTA(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.TWMarch
		} else {
			res, err := core.Scheme1(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.Test
		}
		list := fullCatalog(words, width)
		fault := list[int(faultSel)%len(list)]
		mode := DirectCompare
		if signature {
			mode = Signature
		}
		c := Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatalf("NewReference: %v", err)
		}
		fast, err := ref.Detects(fault)
		if err != nil {
			t.Fatalf("fast %s: %v", fault, err)
		}
		naive, err := Detects(c, fault)
		if err != nil {
			t.Fatalf("naive %s: %v", fault, err)
		}
		if fast != naive {
			t.Fatalf("%s %dx%d %v seed %d: fault %s: fast=%v naive=%v",
				tst.Name, words, width, mode, seed, fault, fast, naive)
		}
	})
}

// fuzzCatalog is the population the lane fuzzers draw chunks from:
// fullCatalog up to 32 cells, and beyond that every model but the
// cubic linked-fault enumeration, so geometries large enough for the
// address-restricted replay stay cheap to build.
func fuzzCatalog(words, width int) []faults.Fault {
	if words*width <= 32 {
		return fullCatalog(words, width)
	}
	list := faults.EnumerateAll(words, width)
	list = append(list, faults.EnumerateAddrFaults(words)...)
	return append(list, faults.EnumerateReadDestructive(words, width)...)
}

// FuzzDetectLaneVsDetects drives random (geometry, march test, scheme,
// seed, chunk, mode) tuples through the bit-parallel lane path and the
// scalar reference replay and requires identical verdicts for every
// lane. The chunk is a window of the full catalog starting at a fuzzed
// offset with a fuzzed length, so tail-lane masking, mixed fault
// classes within one lane, and single-fault lanes are all explored.
func FuzzDetectLaneVsDetects(f *testing.F) {
	// The first seeds run 2–4-word geometries (wordsSel 0–2); the
	// rest reach the address-restricted replay.
	f.Add(uint8(0), uint8(1), uint8(0), int64(1), uint16(0), uint8(63), false)
	f.Add(uint8(0), uint8(1), uint8(1), int64(7), uint16(40), uint8(0), true)
	f.Add(uint8(2), uint8(2), uint8(2), int64(42), uint16(97), uint8(62), true)
	f.Add(uint8(1), uint8(0), uint8(3), int64(-9), uint16(500), uint8(16), false)
	f.Add(uint8(2), uint8(2), uint8(4), int64(1<<40), uint16(9999), uint8(7), true)
	f.Add(uint8(2), uint8(1), uint8(5), int64(0), uint16(3), uint8(1), false)
	f.Add(uint8(6), uint8(1), uint8(2), int64(3), uint16(200), uint8(63), false)
	f.Add(uint8(6), uint8(2), uint8(7), int64(3), uint16(3000), uint8(63), true)
	f.Add(uint8(7), uint8(0), uint8(1), int64(11), uint16(40000), uint8(40), true)
	f.Fuzz(func(t *testing.T, wordsSel, widthSel, testSel uint8, seed int64, faultSel uint16, chunkSel uint8, signature bool) {
		// 2..9 words: chunks naming at most half of them take the
		// address-restricted replay.
		words := 2 + int(wordsSel)%8
		width := []int{2, 4, 8}[int(widthSel)%3] // power-of-two widths
		baseTests := []string{"MATS", "MATS+", "March C-", "March U"}
		base := march.MustLookup(baseTests[int(testSel)%len(baseTests)])
		var tst *march.Test
		if int(testSel)%2 == 0 {
			res, err := core.TWMTA(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.TWMarch
		} else {
			res, err := core.Scheme1(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.Test
		}
		list := fuzzCatalog(words, width)
		start := int(faultSel) % len(list)
		n := 1 + int(chunkSel)%LaneWidth
		chunk := list[start:min(start+n, len(list))]
		mode := DirectCompare
		if signature {
			mode = Signature
		}
		c := Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatalf("NewReference: %v", err)
		}
		bits, err := ref.DetectLane(chunk)
		if err != nil {
			t.Fatalf("DetectLane: %v", err)
		}
		for i, fault := range chunk {
			scalar, err := ref.Detects(fault)
			if err != nil {
				t.Fatalf("scalar %s: %v", fault, err)
			}
			if lane := bits>>uint(i)&1 == 1; lane != scalar {
				t.Fatalf("%s %dx%d %v seed %d: fault %s (lane %d): lane=%v scalar=%v",
					tst.Name, words, width, mode, seed, fault, i, lane, scalar)
			}
		}
	})
}

// FuzzSyndromeLaneVsSyndrome drives random (geometry, march test,
// scheme, seed, chunk, want mask, cap) tuples through the lane
// syndrome replay and the scalar Reference.Syndrome and requires the
// same diagnostic result for every wanted lane. Small caps exercise
// log truncation; sparse want masks exercise the lane selection.
func FuzzSyndromeLaneVsSyndrome(f *testing.F) {
	// The first seeds run 2–4-word geometries (wordsSel 0–2); the
	// rest reach the address-restricted replay.
	f.Add(uint8(0), uint8(1), uint8(0), int64(1), uint16(0), uint8(63), ^uint64(0), uint8(0), false)
	f.Add(uint8(0), uint8(1), uint8(1), int64(7), uint16(40), uint8(0), uint64(1), uint8(3), true)
	f.Add(uint8(2), uint8(2), uint8(2), int64(42), uint16(97), uint8(62), uint64(0x5555), uint8(1), true)
	f.Add(uint8(1), uint8(0), uint8(3), int64(-9), uint16(500), uint8(16), uint64(0xf0f0f0f0), uint8(2), false)
	f.Add(uint8(2), uint8(2), uint8(4), int64(1<<40), uint16(9999), uint8(7), ^uint64(0), uint8(5), true)
	f.Add(uint8(6), uint8(1), uint8(2), int64(3), uint16(200), uint8(63), ^uint64(0), uint8(0), false)
	f.Add(uint8(7), uint8(2), uint8(3), int64(5), uint16(3000), uint8(63), uint64(0xff00ff00ff00ff00), uint8(4), true)
	f.Fuzz(func(t *testing.T, wordsSel, widthSel, testSel uint8, seed int64, faultSel uint16, chunkSel uint8, want uint64, capSel uint8, signature bool) {
		// 2..9 words: chunks naming at most half of them take the
		// address-restricted replay.
		words := 2 + int(wordsSel)%8
		width := []int{2, 4, 8}[int(widthSel)%3] // power-of-two widths
		baseTests := []string{"MATS", "MATS+", "March C-", "March U"}
		base := march.MustLookup(baseTests[int(testSel)%len(baseTests)])
		var tst *march.Test
		if int(testSel)%2 == 0 {
			res, err := core.TWMTA(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.TWMarch
		} else {
			res, err := core.Scheme1(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.Test
		}
		list := fuzzCatalog(words, width)
		start := int(faultSel) % len(list)
		n := 1 + int(chunkSel)%LaneWidth
		chunk := list[start:min(start+n, len(list))]
		limit := int(capSel) % 8 // 0 = march.Run's default cap
		mode := DirectCompare
		if signature {
			mode = Signature
		}
		c := Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatalf("NewReference: %v", err)
		}
		out := make([]march.Result, len(chunk))
		if err := ref.SyndromeLane(chunk, want, limit, out); err != nil {
			t.Fatalf("SyndromeLane: %v", err)
		}
		for i, fault := range chunk {
			if want>>uint(i)&1 == 0 {
				if !reflect.DeepEqual(out[i], march.Result{}) {
					t.Fatalf("lane %d outside want was written: %+v", i, out[i])
				}
				continue
			}
			scalar, err := ref.Syndrome(fault, limit)
			if err != nil {
				t.Fatalf("scalar %s: %v", fault, err)
			}
			if !reflect.DeepEqual(out[i], scalar) {
				t.Fatalf("%s %dx%d seed %d cap %d: fault %s (lane %d):\nlane:   %+v\nscalar: %+v",
					tst.Name, words, width, seed, limit, fault, i, out[i], scalar)
			}
		}
	})
}
