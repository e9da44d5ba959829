package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 10, false}, // 9 samples beyond the median
		{20, 50, 10, true},  // 10 beyond
		{100, 50, 50, true},
		{100, 90, 90, true},
		{100, 99, 99, false},
		{999, 99, 990, false},
		{1000, 99, 990, true},
		{1, 50, 1, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", c.p, c.n, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
	m := latency("campaign_p99_ms", seq(50), 99)
	if m.ok || !strings.Contains(m.note, "1000 samples") || m.n != 50 {
		t.Errorf("p99 of 50 samples: %+v", m)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay.campaign", Start: 0, End: 100},
		// Two children overlap on [30, 40]: the union covers [10, 60].
		{ID: 2, Parent: 1, Name: "replay.cell", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "replay.cell", Start: 30, End: 60},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "campaign.fold", Start: 90, End: 120},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Name: "faultsim.lanes", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := byLayer(spans)
	if layers["replay"] != 40+10+30 || layers["faultsim"] != 20 || layers["campaign"] != 30 {
		t.Errorf("layer self times = %v", layers)
	}
	calls := byName(spans)
	if c := calls["replay.cell"]; c.Spans != 2 || c.Total != 60 || c.Self != 40 {
		t.Errorf("replay.cell totals = %+v", c)
	}
}

func TestRecorderOff(t *testing.T) {
	r := newRecorder(false, "x")
	if id := r.begin(0, "a"); id != 0 {
		t.Fatalf("disabled recorder returned span %d", id)
	}
	r.end(0, 1)
	if len(r.snapshot()) != 0 {
		t.Fatal("disabled recorder kept spans")
	}
	r = newRecorder(true, "x")
	p := r.begin(0, "a")
	c := r.begin(p, "b")
	r.rename(c, "c")
	r.end(c, 7)
	r.end(p, 1)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != p || s[1].Name != "c" || s[1].Count != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

func TestPerCellRatios(t *testing.T) {
	out := &outcome{
		w:         workloads["grid"],
		setup:     []float64{0.3, 0.1, 0.2},
		wall:      4 * time.Second,
		cpu:       3 * time.Second,
		hwm:       64 << 20,
		diskDelta: 6000,
		attempted: 6,
		campaigns: []*campaignRun{
			{ID: "c1", Cells: 10, Faults: 1000, TotalMS: 100, SubmitMS: 1},
			{ID: "c2", Cells: 20, Faults: 3000, TotalMS: 200, SubmitMS: 2},
		},
	}
	out.v.fail("one wrong answer")
	got := make(map[string]float64)
	for _, m := range endToEnd(out) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"setup_s":             0.2,
		"faults_per_s":        1000,
		"cells_per_s":         7.5,
		"cpu_ms_per_cell":     100,
		"peak_rss_mb":         64,
		"disk_bytes_per_cell": 200,
		"error_rate":          1.0 / 6,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if len(endToEnd(out)) != 13 {
		t.Errorf("%d end-to-end metrics, want 13", len(endToEnd(out)))
	}

	out.counts = series{
		"twm_engine_fault_cache_hits_total":         27,
		"twm_engine_fault_cache_misses_total":       3,
		`twm_tracing_spans_total{stage="finished"}`: 90,
		`twm_tracing_spans_total{stage="started"}`:  95,
	}
	out.trace = &traceOut{on: &replayOut{
		cells:      30,
		walBytes:   3000,
		indexBytes: 1200,
		indexed:    30,
		spans: []span{
			{ID: 1, Name: "faultsim.lanes", Start: 0, End: 4000, Count: 2000},
			{ID: 2, Name: "faultsim.lanes", Start: 5000, End: 7000, Count: 1000},
			{ID: 3, Name: "campaign.fold", Start: 0, End: 3000, Count: 1},
			{ID: 4, Name: "campaign.fold", Start: 0, End: 5000, Count: 1},
		},
	}}
	layers := perLayer(out)
	for name, w := range map[string]float64{
		"faultsim.lane_ns_per_fault":     2,
		"campaign.fold_us_per_cell":      4,
		"campaign.fault_cache_hit_ratio": 0.9,
		"jobstore.wal_bytes_per_cell":    100,
		"warehouse.bytes_per_cell":       40,
		"tracing.spans_per_cell":         3,
	} {
		if math.Abs(layers[name].value-w) > 1e-9 || !layers[name].ok {
			t.Errorf("%s = %+v, want %v", name, layers[name], w)
		}
	}
	if layers["faultsim.syndrome_ns_per_fault"].ok || layers["cluster.lease_us"].ok {
		t.Error("layers the workload never ran reported as measured")
	}
	line := result(out)
	for _, d := range layerDefs {
		if _, ok := line.Metrics[d.name]; ok != d.all {
			t.Errorf("%s in traced result line = %v, want %v", d.name, ok, d.all)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	out := &outcome{
		w:         workloads["fleet"],
		campaigns: []*campaignRun{{ID: "c1", Cells: 4}},
		counts: series{
			"twm_jobstore_wal_appends_total":                  4,
			"twm_engine_fault_cache_hits_total":               2,
			"twm_engine_fault_cache_misses_total":             2,
			`twm_cluster_lease_events_total{kind="complete"}`: 4,
		},
	}
	out.checkCounts()
	if out.v.failed != 0 {
		t.Fatalf("exact counts flagged: %v", out.v.notes)
	}
	out.counts["twm_jobstore_wal_appends_total"] = 5
	out.counts[`twm_cluster_lease_events_total{kind="complete"}`] = 3
	out.checkCounts()
	if out.v.failed != 2 {
		t.Fatalf("%d failures for two wrong counts: %v", out.v.failed, out.v.notes)
	}
}

func TestSpecStreamDeterministic(t *testing.T) {
	stream := func(w workload, seed int64) []byte {
		var b bytes.Buffer
		for c := 0; c < w.clients; c++ {
			for n := 0; n < 50; n++ {
				s := w.spec(seed, c, n)
				if err := s.Validate(); err != nil {
					t.Fatalf("%s spec %d/%d invalid: %v", w.name, c, n, err)
				}
				if cells := s.CellCount(); w.name == "interactive" && (cells < 2 || cells > 4) ||
					w.name == "fleet" && cells != 432 {
					t.Fatalf("%s spec has %d cells", w.name, cells)
				}
				b.Write(specJSON(s))
				if w.queries {
					q := querySpec(seed, c, n, 300)
					b.WriteString(q.values().Encode())
				}
			}
		}
		return b.Bytes()
	}
	for _, w := range workloads {
		a, b := stream(w, 7), stream(w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two spec streams", w.name)
		}
		if bytes.Equal(a, stream(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec stream", w.name)
		}
	}
	if !bytes.Equal(specJSON(historySpec(3, 9)), specJSON(historySpec(3, 9))) {
		t.Error("history spec not deterministic")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the result line in step:
// every metric the file declares is one the command prints, with the
// same unit, and every workload it names exists.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("unknown workload %q", w.Name)
		}
	}
	out := &outcome{w: workloads["grid"], wall: time.Second, campaigns: []*campaignRun{{Cells: 1}}}
	check := func(kind string, decls []decl, line resultLine) {
		if len(decls) != len(line.Metrics) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the result line has %d", kind, len(decls), len(line.Metrics))
		}
		for _, d := range decls {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s metric %s (%s): result line has %+v", kind, d.Name, d.Unit, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, result(out))
	out.trace = &traceOut{on: &replayOut{}}
	check("per_layer", b.PerLayer, result(out))
}

func TestParseProm(t *testing.T) {
	in := "# HELP x_total help\n# TYPE x_total counter\nx_total 3\ny_total{kind=\"lease\"} 2\ny_total{kind=\"complete\"} 5\n"
	s, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.sum("x_total") != 3 || s.sum("y_total") != 7 || s.label("y_total", "kind", "lease") != 2 {
		t.Fatalf("parsed %v", s)
	}
	d := delta(series{"x_total": 1}, s)
	if d["x_total"] != 2 || d[`y_total{kind="complete"}`] != 5 {
		t.Fatalf("delta %v", d)
	}
}

func TestQueryAnswerOK(t *testing.T) {
	known := knownCells{3: {{}}}
	known[3][0].Test, known[3][0].Width, known[3][0].Words = "MATS", 2, 8
	known[3][0].Scheme, known[3][0].Mode, known[3][0].Faults, known[3][0].Detected = "twm", "compare", 40, 39
	rec := queryRecord{ID: "c3", Cell: 0, Test: "MATS", Width: 2, Words: 8, Scheme: "twm", Mode: "compare", Faults: 40, Detected: 39}
	q := query{Test: "MATS", Width: 2, Limit: 5}
	if !queryAnswerOK(q, []queryRecord{rec}, known) {
		t.Fatal("matching record rejected")
	}
	bad := rec
	bad.Detected = 40
	if queryAnswerOK(q, []queryRecord{bad}, known) {
		t.Error("record with wrong counts accepted")
	}
	if queryAnswerOK(query{Test: "MATS", Width: 4, Limit: 5}, []queryRecord{rec}, known) {
		t.Error("record outside the filter accepted")
	}
	if queryAnswerOK(query{Test: "MATS", Width: 2, MinJob: 4, Limit: 5}, []queryRecord{rec}, known) {
		t.Error("record below min_job accepted")
	}
}
