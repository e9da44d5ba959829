package faultsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// gridTests are the four march tests of the Table 3 characterization
// grid.
var gridTests = []string{"March C-", "March U", "March B", "March LR"}

// restrictConfigs returns campaign configurations large enough for the
// address-restricted replay to run: the grid tests through TWMTA and
// Scheme 1 at W 4/8/16 × 8/16 words, in both detection modes.
func restrictConfigs(t *testing.T) []Campaign {
	t.Helper()
	var out []Campaign
	seed := int64(1)
	for _, width := range []int{4, 8, 16} {
		for _, words := range []int{8, 16} {
			for _, name := range gridTests {
				base := march.MustLookup(name)
				twm, err := core.TWMTA(base, width)
				if err != nil {
					t.Fatal(err)
				}
				s1, err := core.Scheme1(base, width)
				if err != nil {
					t.Fatal(err)
				}
				for _, tst := range []*march.Test{twm.TWMarch, s1.Test} {
					for _, mode := range []DetectMode{DirectCompare, Signature} {
						seed++
						out = append(out, Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed})
					}
				}
			}
		}
	}
	return out
}

// gridFaults lists the grid workload's population in enumeration
// order (address-major within each class): SAF, TF and intra-word CFid.
// CFid is kept only for the words in cfidWords, which bounds the cost
// of the scalar oracle without changing the chunk shapes.
func gridFaults(words, width int, cfidWords ...int) []faults.Fault {
	list := faults.EnumerateStuckAt(words, width)
	list = append(list, faults.EnumerateTransition(words, width)...)
	keep := make(map[int]bool)
	for _, a := range cfidWords {
		keep[a] = true
	}
	for _, f := range faults.EnumerateCFid(words, width, faults.IntraWordPairs) {
		if keep[f.(faults.Coupling).Aggressor.Addr] {
			list = append(list, f)
		}
	}
	return list
}

// checkLaneChunks runs each chunk through DetectLane and SyndromeLane
// and requires the verdicts of Reference.Detects and the results of
// Reference.Syndrome (capped at maxMismatches) for every fault. A
// negative maxMismatches skips the syndromes.
func checkLaneChunks(t *testing.T, c Campaign, ref *Reference, chunks [][]faults.Fault, maxMismatches int) {
	t.Helper()
	for _, chunk := range chunks {
		out := make([]march.Result, len(chunk))
		verdict, err := ref.DetectLane(chunk)
		if err != nil {
			t.Fatalf("DetectLane: %v", err)
		}
		if maxMismatches >= 0 {
			if err := ref.SyndromeLane(chunk, ^uint64(0), maxMismatches, out); err != nil {
				t.Fatalf("SyndromeLane: %v", err)
			}
		}
		for i, f := range chunk {
			want, err := ref.Detects(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdict>>uint(i)&1 == 1; got != want {
				t.Errorf("%s %dx%d %v: fault %s: lane=%v scalar=%v",
					c.Test.Name, c.Words, c.Width, c.Mode, f, got, want)
			}
			if maxMismatches < 0 {
				continue
			}
			syn, err := ref.Syndrome(f, maxMismatches)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out[i], syn) {
				t.Errorf("%s %dx%d %v: fault %s: syndrome\nlane:   %+v\nscalar: %+v",
					c.Test.Name, c.Words, c.Width, c.Mode, f, out[i], syn)
			}
		}
	}
}

// chunksOf splits a list into LaneWidth chunks in order.
func chunksOf(list []faults.Fault) [][]faults.Fault {
	var out [][]faults.Fault
	for start := 0; start < len(list); start += LaneWidth {
		out = append(out, list[start:min(start+LaneWidth, len(list))])
	}
	return out
}

// On the grid geometries most address-major chunks name a few
// words and take the restricted replay; the verdicts and syndromes
// must still match the scalar reference for every fault, and the
// restricted path must actually have run (the W4 × 8-word SAF/TF
// chunks name eight words and fall back to the full replay).
func TestRestrictedLaneGrid(t *testing.T) {
	var restricted, chunks int64
	for _, c := range restrictConfigs(t) {
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		list := gridFaults(c.Words, c.Width, 0, c.Words-1)
		cs := chunksOf(list)
		checkLaneChunks(t, c, ref, cs, 4)
		n := ref.restrictedChunks.Load()
		if n == 0 {
			t.Errorf("%s %dx%d %v: no chunk took the restricted replay", c.Test.Name, c.Words, c.Width, c.Mode)
		}
		restricted += n
		chunks += 2 * int64(len(cs)) // DetectLane and SyndromeLane
	}
	if restricted == chunks {
		t.Error("every chunk took the restricted replay; the full-replay fallback went unexercised")
	}
}

// Chunks that mix faults from several words, in shuffled order, still
// restrict while they name at most half the words; a list shuffled as
// a whole names nearly every word per chunk and must fall back to the
// full replay with identical results.
func TestRestrictedLaneMixedChunks(t *testing.T) {
	for _, mode := range []DetectMode{DirectCompare, Signature} {
		twm, err := core.TWMTA(march.MustLookup("March U"), 8)
		if err != nil {
			t.Fatal(err)
		}
		c := Campaign{Test: twm.TWMarch, Words: 16, Width: 8, Mode: mode, Seed: 5}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		list := gridFaults(c.Words, c.Width, 0, 3, 4, 9, 15)
		byAddr := make(map[int][]faults.Fault)
		for _, f := range list {
			var a int
			switch f := f.(type) {
			case faults.StuckAt:
				a = f.Cell.Addr
			case faults.Transition:
				a = f.Cell.Addr
			case faults.Coupling:
				a = f.Aggressor.Addr
			}
			byAddr[a] = append(byAddr[a], f)
		}
		rng := rand.New(rand.NewSource(int64(mode) + 1))
		var mixed [][]faults.Fault
		for k := 2; k <= c.Words/2; k++ {
			var pool []faults.Fault
			for _, a := range rng.Perm(c.Words)[:k] {
				pool = append(pool, byAddr[a]...)
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			mixed = append(mixed, pool[:min(LaneWidth, len(pool))])
		}
		checkLaneChunks(t, c, ref, mixed, 0)
		if got, want := ref.restrictedChunks.Load(), int64(2*len(mixed)); got != want {
			t.Errorf("%v: %d of %d mixed chunks took the restricted replay", mode, got, want)
		}

		shuffled := append([]faults.Fault(nil), list...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		before := ref.restrictedChunks.Load()
		checkLaneChunks(t, c, ref, chunksOf(shuffled), 0)
		if n := ref.restrictedChunks.Load() - before; n != 0 {
			t.Errorf("%v: %d fully shuffled chunks took the restricted replay", mode, n)
		}
	}
}

// Every fault model of the library at 8 words × 4 bits, sorted by the
// words each fault names, so decoder, linked, inter-word coupling and
// read-disturb chunks restrict too; in enumeration order most coupling
// and decoder chunks name more than half the words and replay in full
// (checked in compare mode, where the scalar oracle exits early). The
// syndrome replay does not depend on the detection mode, so the
// signature configurations check verdicts only.
func TestRestrictedLaneFullCatalog(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Scheme1(march.MustLookup("March B"), 4)
	if err != nil {
		t.Fatal(err)
	}
	list := fullCatalog(8, 4)
	for _, tst := range []*march.Test{twm.TWMarch, s1.Test} {
		for _, mode := range []DetectMode{DirectCompare, Signature} {
			c := Campaign{Test: tst, Words: 8, Width: 4, Mode: mode, Seed: 17}
			ref, err := NewReference(c)
			if err != nil {
				t.Fatal(err)
			}
			maxMismatches := 3
			if mode == Signature {
				maxMismatches = -1
			}
			local := byTouchedWords(ref, list)
			checkLaneChunks(t, c, ref, chunksOf(local), maxMismatches)
			replays := int64(len(chunksOf(local))) // one DetectLane per chunk
			if maxMismatches >= 0 {
				replays *= 2 // and one SyndromeLane
			}
			if n := ref.restrictedChunks.Load(); 2*n < replays {
				t.Errorf("%s %v: %d of %d word-sorted replays restricted, want most", tst.Name, mode, n, replays)
			}
			if mode == DirectCompare {
				checkLaneChunks(t, c, ref, chunksOf(list), -1)
			}
		}
	}
}

// byTouchedWords returns list stably sorted by the words each fault
// names (as the lane packer records them), so neighboring faults share
// words.
func byTouchedWords(ref *Reference, list []faults.Fault) []faults.Fault {
	ar := newLaneArena(ref)
	keys := make([]string, len(list))
	for i, f := range list {
		ar.pack(ref, f, 1)
		key := make([]byte, len(ar.touched))
		for j, a := range ar.touched {
			key[j] = byte(a)
		}
		sort.Slice(key, func(i, j int) bool { return key[i] < key[j] })
		keys[i] = string(key)
		ar.release(ref, false)
	}
	idx := make([]int, len(list))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	out := make([]faults.Fault, len(list))
	for i, k := range idx {
		out[i] = list[k]
	}
	return out
}

// A test that fails fault-free reads: ⇑(r0) on random contents
// mismatches at every word holding a nonzero value. A restricted chunk
// that leaves such a word untouched is detected in every lane without
// a replay, and its syndromes fall back to the full replay; a chunk
// that touches every failing word replays restricted. All of it must
// match the scalar reference.
func TestRestrictedLaneFaultFreeMismatch(t *testing.T) {
	zero := march.Lit(word.Zero)
	tst := march.MustNew("r0 first", 1,
		march.Elem(march.Up, march.R(zero)),
		march.Elem(march.Up, march.W(march.LitBit(1)), march.R(march.LitBit(1))),
		march.Elem(march.Down, march.W(zero), march.R(zero)))
	const words = 8
	var found bool
	for seed := int64(1); seed < 64 && !found; seed++ {
		c := Campaign{Test: tst, Words: words, Width: 1, Mode: DirectCompare, Seed: seed}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		ref.restrictOnce.Do(ref.buildRestriction)
		bad := ref.ffBad
		if len(bad) == 0 || 2*len(bad) > words {
			continue
		}
		found = true
		var good []int
		isBad := make(map[int]bool)
		for _, a := range bad {
			isBad[int(a)] = true
		}
		for a := 0; a < words; a++ {
			if !isBad[a] {
				good = append(good, a)
			}
		}
		saf := func(addrs ...int) []faults.Fault {
			var out []faults.Fault
			for _, a := range addrs {
				out = append(out, faults.StuckAt{Cell: faults.Site{Addr: a}, Value: 0},
					faults.StuckAt{Cell: faults.Site{Addr: a}, Value: 1},
					faults.Transition{Cell: faults.Site{Addr: a}, Rise: true})
			}
			return out
		}
		var badAddrs []int
		for _, a := range bad {
			badAddrs = append(badAddrs, int(a))
		}

		// Untouched failing word: DetectLane restricts (every lane
		// detects), SyndromeLane replays in full.
		checkLaneChunks(t, c, ref, [][]faults.Fault{saf(good[0])}, 0)
		if n := ref.restrictedChunks.Load(); n != 1 {
			t.Errorf("seed %d: %d restricted chunks after an untouched failing word, want 1 (DetectLane only)", seed, n)
		}
		// Every failing word touched: both replays restrict.
		checkLaneChunks(t, c, ref, [][]faults.Fault{saf(badAddrs...)}, 0)
		if n := ref.restrictedChunks.Load(); n != 3 {
			t.Errorf("seed %d: %d restricted chunks after touching every failing word, want 3", seed, n)
		}
	}
	if !found {
		t.Fatal("no seed gives 1..words/2 failing words")
	}
}

// A fault of a type the packer does not model (here a pointer to a
// modeled value type, which faults.Inject accepts) sends its chunk to
// the full replay and its lane to the scalar oracle.
func TestRestrictedLaneUnmodeledFallback(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DetectMode{DirectCompare, Signature} {
		c := Campaign{Test: twm.TWMarch, Words: 16, Width: 8, Mode: mode, Seed: 3}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		chunk := gridFaults(c.Words, c.Width)[:LaneWidth-1]
		chunk = append(chunk, &faults.StuckAt{Cell: faults.Site{Addr: 0, Bit: 1}, Value: 1})
		checkLaneChunks(t, c, ref, [][]faults.Fault{chunk}, 0)
		if n := ref.restrictedChunks.Load(); n != 0 {
			t.Errorf("%v: a chunk with an unmodeled fault took the restricted replay %d times", mode, n)
		}
		// The same chunk without it restricts.
		checkLaneChunks(t, c, ref, [][]faults.Fault{chunk[:LaneWidth-1]}, 0)
		if n := ref.restrictedChunks.Load(); n != 2 {
			t.Errorf("%v: %d restricted chunks, want 2", mode, n)
		}
	}
}

// Restricted replays reset only the words they touched; chunks that
// alternate between the two paths on one pooled arena must keep
// reproducing the verdicts of a fresh Reference.
func TestRestrictedLaneArenaReuse(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March LR"), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DetectMode{DirectCompare, Signature} {
		c := Campaign{Test: twm.TWMarch, Words: 8, Width: 4, Mode: mode, Seed: 9}
		list := gridFaults(8, 4, 0, 1, 2, 3, 4, 5, 6, 7)
		rng := rand.New(rand.NewSource(2))
		shuffled := append([]faults.Fault(nil), list...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var chunks [][]faults.Fault
		for i := 0; i+LaneWidth <= len(list); i += 3 * LaneWidth {
			chunks = append(chunks, list[i:i+LaneWidth], shuffled[i:i+LaneWidth])
		}
		shared, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range chunks {
			fresh, err := NewReference(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.DetectLane(ch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shared.DetectLane(ch)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v chunk %d: reused arena %#x, fresh %#x", mode, i, got, want)
			}
		}
		if n := shared.restrictedChunks.Load(); n == 0 || n == int64(len(chunks)) {
			t.Errorf("%v: %d of %d chunks restricted; want both paths exercised", mode, n, len(chunks))
		}
	}
}

// Restricted chunks from several goroutines on a fresh Reference: the
// restriction tables are built by whichever chunk gets there first, and
// every goroutine must still reproduce the serial verdicts and
// syndromes. Run under -race in CI.
func TestRestrictedLaneConcurrent(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DetectMode{DirectCompare, Signature} {
		c := Campaign{Test: twm.TWMarch, Words: 16, Width: 8, Mode: mode, Seed: 13}
		chunks := chunksOf(gridFaults(c.Words, c.Width, 2, 7, 11))
		serialRef, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		verdicts := make([]uint64, len(chunks))
		syndromes := make([][]march.Result, len(chunks))
		for i, ch := range chunks {
			if verdicts[i], err = serialRef.DetectLane(ch); err != nil {
				t.Fatal(err)
			}
			syndromes[i] = make([]march.Result, len(ch))
			if err := serialRef.SyndromeLane(ch, ^uint64(0), 2, syndromes[i]); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(chunks); i += workers {
					got, err := ref.DetectLane(chunks[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != verdicts[i] {
						t.Errorf("%v chunk %d: concurrent %#x, serial %#x", mode, i, got, verdicts[i])
					}
					syn := make([]march.Result, len(chunks[i]))
					if err := ref.SyndromeLane(chunks[i], ^uint64(0), 2, syn); err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(syn, syndromes[i]) {
						t.Errorf("%v chunk %d: concurrent syndromes differ from serial", mode, i)
					}
				}
			}(w)
		}
		wg.Wait()
		if ref.restrictedChunks.Load() == 0 {
			t.Errorf("%v: no chunk took the restricted replay", mode)
		}
	}
}

// spreadChunk returns LaneWidth SAF and TF faults dealt round-robin
// over k evenly spaced words, so the chunk touches exactly k words.
func spreadChunk(words, width, k int) []faults.Fault {
	per := make([][]faults.Fault, k)
	for i := range per {
		a := i * words / k
		for b := 0; b < width; b++ {
			c := faults.Site{Addr: a, Bit: b}
			per[i] = append(per[i], faults.StuckAt{Cell: c}, faults.StuckAt{Cell: c, Value: 1},
				faults.Transition{Cell: c, Rise: true}, faults.Transition{Cell: c})
		}
	}
	out := make([]faults.Fault, 0, LaneWidth)
	for j := 0; len(out) < LaneWidth; j++ {
		for i := 0; i < k && len(out) < LaneWidth; i++ {
			out = append(out, per[i][j%len(per[i])])
		}
	}
	return out
}

// BenchmarkRestrictCutoff times one chunk's full and restricted replay
// as the chunk touches more of the words (k of them), the measurement
// behind restricting at most half the words:
//
//	go test -run xxx -bench RestrictCutoff -benchtime 0.2s ./internal/faultsim
func BenchmarkRestrictCutoff(b *testing.B) {
	geos := []struct {
		test         string
		width, words int
	}{
		{"MATS+", 2, 16}, {"MATS++", 4, 16}, {"MATS++", 4, 32},
		{"March C-", 8, 16}, {"March C-", 16, 32}, {"March U", 32, 32},
	}
	for _, g := range geos {
		res, err := core.TWMTA(march.MustLookup(g.test), g.width)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []DetectMode{DirectCompare, Signature} {
			ref, err := NewReference(Campaign{Test: res.TWMarch, Words: g.words, Width: g.width, Mode: mode, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, eighths := range []int{1, 2, 4, 6, 8} {
				k := g.words * eighths / 8
				chunk := spreadChunk(g.words, g.width, k)
				for _, path := range []string{"full", "restricted"} {
					name := fmt.Sprintf("%s/W%dx%d/%v/k=%d/%s", g.test, g.width, g.words, mode, k, path)
					b.Run(name, func(b *testing.B) {
						ref.maxTouched = 0
						if path == "restricted" {
							ref.maxTouched = g.words
						}
						defer func() { ref.maxTouched = g.words / 2 }()
						before := ref.restrictedChunks.Load()
						for i := 0; i < b.N; i++ {
							if _, err := ref.DetectLane(chunk); err != nil {
								b.Fatal(err)
							}
						}
						if restricted := ref.restrictedChunks.Load() > before; restricted != (path == "restricted") {
							b.Fatalf("restricted replay ran: %v", restricted)
						}
					})
				}
			}
		}
	}
}
