package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionGolden pins the exposition format byte-for-byte:
// deterministic family and series ordering, HELP/TYPE metadata,
// label quoting, histogram cumulative buckets, integer-vs-float
// rendering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_cells_total", "cells simulated", "scheme")
	c.With("twm").Add(42)
	c.With("scheme1").Inc()
	g := r.Gauge("test_queue_depth", "pending cells", "job")
	g.With("c1").Set(3)
	g.With("c2").Set(0.5)
	h := r.Histogram("test_duration_seconds", "cell latency", []float64{0.1, 1})
	h.With().Observe(0.05)
	h.With().Observe(0.05)
	h.With().Observe(0.7)
	h.With().Observe(5)
	r.Counter("test_empty_total", "registered but never incremented")

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_cells_total cells simulated
# TYPE test_cells_total counter
test_cells_total{scheme="scheme1"} 1
test_cells_total{scheme="twm"} 42
# HELP test_duration_seconds cell latency
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{le="0.1"} 2
test_duration_seconds_bucket{le="1"} 3
test_duration_seconds_bucket{le="+Inf"} 4
test_duration_seconds_sum 5.8
test_duration_seconds_count 4
# HELP test_empty_total registered but never incremented
# TYPE test_empty_total counter
# HELP test_queue_depth pending cells
# TYPE test_queue_depth gauge
test_queue_depth{job="c1"} 3
test_queue_depth{job="c2"} 0.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelEscaping pins quoting of label values that need escapes.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "v").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE esc_total counter\nesc_total{v=\"a\\\"b\\\\c\\nd\"} 1\n"
	if got := buf.String(); got != want {
		t.Errorf("escaped exposition = %q, want %q", got, want)
	}
}

// TestDelete drops a series from exposition — the per-job gauge
// cleanup path on eviction.
func TestDelete(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("del_gauge", "", "job")
	g.With("c1").Set(1)
	g.With("c2").Set(2)
	g.Delete("c1")
	var buf bytes.Buffer
	r.WriteProm(&buf)
	if strings.Contains(buf.String(), `job="c1"`) {
		t.Errorf("deleted series still exposed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `job="c2"`) {
		t.Errorf("surviving series missing:\n%s", buf.String())
	}
}

// TestReregister checks idempotent registration returns the same
// series and that a conflicting re-registration panics.
func TestReregister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("re_total", "first")
	b := r.Counter("re_total", "second")
	a.With().Inc()
	b.With().Inc()
	if v := a.With().Value(); v != 2 {
		t.Errorf("re-registered counter diverged: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("re_total", "conflict")
}

// TestConcurrentHotPath hammers Inc/Observe/Set from many goroutines
// while Gather runs — the -race test for the atomic hot paths.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "", "w").With("a")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "", []float64{0.001, 0.01, 0.1})
	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			gg := g.With()
			hh := h.With()
			for j := 0; j < iters; j++ {
				c.Inc()
				gg.Set(float64(j))
				hh.Observe(float64(j%100) / 1000)
			}
		}(i)
	}
	stop := make(chan struct{})
	var gatherWG sync.WaitGroup
	gatherWG.Add(1)
	go func() {
		defer gatherWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := r.WriteProm(&buf); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	gatherWG.Wait()
	if v := c.Value(); v != goroutines*iters {
		t.Errorf("counter = %v after %d increments", v, goroutines*iters)
	}
	if n := h.With().Count(); n != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", n, goroutines*iters)
	}
}

// TestInstrument checks the HTTP middleware records request count and
// latency under the normalized route, captures non-200 codes, and
// leaves Flusher/Unwrap working.
// instrumentRuns numbers TestInstrument invocations: Instrument counts
// on the process-wide default registry, so each run serves under its
// own component label and its exact counts cannot see an earlier
// run's requests (go test -count=N).
var instrumentRuns atomic.Int64

func TestInstrument(t *testing.T) {
	component := fmt.Sprintf("test-%d", instrumentRuns.Add(1))
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("instrumented writer lost Flusher")
		}
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	h := Instrument(component, mux, func(r *http.Request) string { return "route:" + r.URL.Path })
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if v := httpReqs.With(component, "route:/ok", "GET", "200").Value(); v != 3 {
		t.Errorf("requests counter = %v, want 3", v)
	}
	if v := httpReqs.With(component, "route:/missing", "GET", "404").Value(); v != 1 {
		t.Errorf("404 counter = %v, want 1", v)
	}
	if n := httpDur.With(component, "route:/ok").Count(); n != 3 {
		t.Errorf("duration histogram count = %d, want 3", n)
	}
}

// TestOnGather checks gather hooks run before series are read, so
// derived gauges are fresh in the scrape that reads them.
func TestOnGather(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("derived_gauge", "")
	n := 0.0
	r.OnGather(func() { n++; g.With().Set(n) })
	var buf bytes.Buffer
	r.WriteProm(&buf)
	r.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, "derived_gauge 1\n") || !strings.Contains(out, "derived_gauge 2\n") {
		t.Errorf("OnGather hook not applied per scrape:\n%s", out)
	}
}

// TestDebugMux smoke-tests the /metrics, /debug/runtime and
// /debug/pprof/ surfaces end to end.
func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mux_total", "x").With().Inc()
	ts := httptest.NewServer(DebugMux(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "mux_total 1") {
		t.Errorf("metrics body missing counter:\n%s", buf.String())
	}

	resp, err = http.Get(ts.URL + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	var snap RuntimeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Goroutines <= 0 || snap.HeapAllocBytes == 0 {
		t.Errorf("runtime snapshot implausible: %+v", snap)
	}
	if len(snap.Metrics) == 0 || snap.Metrics[0].Name != "mux_total" {
		t.Errorf("snapshot registry dump missing: %+v", snap.Metrics)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
}

// TestLoggerFormats checks both -log-format variants carry the
// component attribute.
func TestLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, LogJSON, "twmd", nil).Info("hello", "job", "c1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line %q: %v", buf.String(), err)
	}
	if rec["component"] != "twmd" || rec["job"] != "c1" || rec["msg"] != "hello" {
		t.Errorf("json record %v", rec)
	}
	buf.Reset()
	NewLogger(&buf, LogText, "twmw", nil).Info("hi", "lease", "c1-7")
	line := buf.String()
	if !strings.Contains(line, "component=twmw") || !strings.Contains(line, "lease=c1-7") {
		t.Errorf("text record %q", line)
	}
	NopLogger().Error("dropped")
}
