package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Parent 0 marks a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Count is the work the span covered: faults for per-fault layers,
	// cells or bytes elsewhere.
	Count int `json:"count"`
}

// recorder keeps spans in memory for one replay. A disabled recorder
// (nil or off) records nothing and costs one branch per call, which is
// what the spans-off replay measures against.
type recorder struct {
	on    bool
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool, run string) *recorder {
	return &recorder{on: on, run: run, epoch: time.Now()}
}

// begin opens a span and returns its id (0 when recording is off).
func (r *recorder) begin(parent int, name string) int {
	if r == nil || !r.on {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id, recording the work it covered.
func (r *recorder) end(id, count int) {
	if id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Count = count
	r.mu.Unlock()
}

// rename renames span id, for spans whose kind is known only once the
// call returns.
func (r *recorder) rename(id int, name string) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children. Children may
// overlap each other (cells simulated in parallel under one campaign),
// so coverage is a union, not a sum.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerOf names the layer a span belongs to: the prefix before the
// first dot ("faultsim.lanes" is layer faultsim).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// callStats totals the spans of one name.
type callStats struct {
	Spans  int
	Total  int64 // summed duration, ns
	Self   int64 // summed self time, ns
	Counts int   // summed Count
}

// byName folds spans into per-name totals.
func byName(spans []span) map[string]callStats {
	self := selfTimes(spans)
	out := make(map[string]callStats)
	for _, s := range spans {
		c := out[s.Name]
		c.Spans++
		c.Total += s.End - s.Start
		c.Self += self[s.ID]
		c.Counts += s.Count
		out[s.Name] = c
	}
	return out
}

// byLayer sums self time per layer.
func byLayer(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}
