package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// setupStarts is how many timed daemon starts set-up makes; setup_s
// is their median. The last start serves the measured phase.
const setupStarts = 5

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the twmd and twmw binaries
	work     string // scratch root inside the checkout
}

// outcome is everything one invocation measured.
type outcome struct {
	w         workload
	setup     []float64 // seconds per timed start
	wall      time.Duration
	campaigns []*campaignRun
	queries   []*queryRun
	counts    series // /metrics deltas, twmd plus twmw
	cpu       time.Duration
	hwm       int64
	diskDelta int64
	attempted int
	v         verification
	trace     *traceOut // traced runs only
}

// traceOut is the traced run's replay pair.
type traceOut struct {
	on, off *replayOut
	path    string // where the spans were written
}

// fleetProcs is the daemon set of one start.
type fleetProcs struct {
	twmd, twmw *proc
}

func (f *fleetProcs) stop() {
	if f.twmw != nil {
		f.twmw.stop()
	}
	f.twmd.stop()
}

// procs lists the running daemons.
func (f *fleetProcs) procs() []*proc {
	if f.twmw != nil {
		return []*proc{f.twmd, f.twmw}
	}
	return []*proc{f.twmd}
}

// bench runs one workload end to end: fresh datadir, timed starts,
// the measured phase, resource probes, the correctness gate, and for
// traced runs the in-process replay.
func bench(ctx context.Context, o options) (*outcome, error) {
	w := workloads[o.workload]
	// The run directory is kept, not removed: deleting a run's tens of
	// thousands of small journal files fragmented the filesystem's free
	// space, and the next runs' file creation grew slower run by run
	// (interactive lost a third of its throughput over five runs).
	dir, err := os.MkdirTemp(o.work, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "data")
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   150 * time.Second,
	}
	defer hc.CloseIdleConnections()
	out := &outcome{w: w}

	known := make(knownCells)
	startData := ""
	if w.history {
		if known, err = seedHistory(ctx, data, o.seed); err != nil {
			return nil, fmt.Errorf("seed history: %w", err)
		}
		// One untimed start builds the warehouse index from the seeded
		// journals; the timed starts then recover and reconcile it.
		f, _, err := start(ctx, o, w, dir, data, hc)
		if err != nil {
			return nil, err
		}
		f.stop()
		if o.trace {
			startData = filepath.Join(dir, "start")
			if err := copyTree(data, startData); err != nil {
				return nil, err
			}
		}
	}
	var f *fleetProcs
	for i := 0; i < setupStarts; i++ {
		if f != nil {
			f.stop()
		}
		var took time.Duration
		if f, took, err = start(ctx, o, w, dir, data, hc); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took.Seconds())
	}
	running := true
	defer func() {
		if running {
			f.stop()
		}
	}()

	before, err := scrapeAll(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	var cpu0 time.Duration
	for _, p := range f.procs() {
		c, err := p.cpu()
		if err != nil {
			return nil, err
		}
		cpu0 += c
	}
	disk0, err := dirBytes(data)
	if err != nil {
		return nil, err
	}

	d := &driver{w: w, seed: o.seed, base: "http://" + f.twmd.addr, http: hc, status: o.trace}
	out.wall = d.phase(ctx, o.seconds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.campaigns, out.queries = d.campaigns, d.queries

	after, err := scrapeAll(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	out.counts = delta(before, after)
	for _, p := range f.procs() {
		c, err := p.cpu()
		if err != nil {
			return nil, err
		}
		h, err := p.hwm()
		if err != nil {
			return nil, err
		}
		out.cpu += c
		out.hwm += h
	}
	out.cpu -= cpu0
	// A graceful stop lets the last settle finish its journal marker
	// and index checkpoint before the datadir is measured.
	f.stop()
	running = false
	disk1, err := dirBytes(data)
	if err != nil {
		return nil, err
	}
	out.diskDelta = disk1 - disk0

	if err := verifyCampaigns(ctx, out.campaigns, known, &out.v); err != nil {
		return nil, err
	}
	verifyQueries(out.queries, known, &out.v)
	out.checkCounts()
	for _, r := range out.campaigns {
		out.attempted += 3 // submit, events, results
		if o.trace {
			out.attempted++ // status
		}
		if r.Err != nil {
			out.v.fail("%s (client %d): %v", r.ID, r.Client, r.Err)
		}
	}
	for _, q := range out.queries {
		out.attempted++
		if q.Err != nil {
			out.v.fail("query %+v: %v", q.Q, q.Err)
		}
	}

	if o.trace {
		if out.trace, err = traced(ctx, o, w, out, startData, dir); err != nil {
			return nil, err
		}
		for _, id := range out.trace.on.mismatches {
			out.v.fail("%s: traced replay differs from twmd's /results", id)
		}
		for _, id := range out.trace.off.mismatches {
			out.v.fail("%s: untraced replay differs from twmd's /results", id)
		}
	}
	return out, nil
}

// start launches the workload's daemons on data and returns them with
// the set-up time: from twmd's exec until /healthz answers, and for the
// fleet until the coordinator has seen the worker's first lease call.
func start(ctx context.Context, o options, w workload, dir, data string, hc *http.Client) (*fleetProcs, time.Duration, error) {
	t0 := time.Now()
	args := []string{"-addr", "127.0.0.1:0", "-datadir", data, "-addr-file", filepath.Join(dir, "twmd.addr")}
	if w.cluster {
		args = append(args, "-cluster")
	}
	twmd, err := startProc(ctx, "twmd", filepath.Join(o.bin, "twmd"), filepath.Join(dir, "twmd.addr"), filepath.Join(dir, "twmd.log"), args...)
	if err != nil {
		return nil, 0, err
	}
	f := &fleetProcs{twmd: twmd}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := waitFor(wctx, hc, twmd.url("/healthz"), func([]byte) bool { return true }); err != nil {
		f.stop()
		return nil, 0, err
	}
	if w.cluster {
		f.twmw, err = startProc(ctx, "twmw", filepath.Join(o.bin, "twmw"), filepath.Join(dir, "twmw.addr"), filepath.Join(dir, "twmw.log"),
			"-coordinator", "http://"+twmd.addr, "-parallel", "2",
			"-metrics-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "twmw.addr"))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		seen := func(b []byte) bool {
			var workers []json.RawMessage
			return json.Unmarshal(b, &workers) == nil && len(workers) > 0
		}
		if err := waitFor(wctx, hc, twmd.url("/cluster/workers"), seen); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(t0), nil
}

// scrapeAll reads /metrics from every daemon and sums them.
func scrapeAll(ctx context.Context, hc *http.Client, f *fleetProcs) (series, error) {
	total := make(series)
	for _, p := range f.procs() {
		s, err := scrape(ctx, hc, p.url("/metrics"))
		if err != nil {
			return nil, err
		}
		total.add(s)
	}
	return total, nil
}

// completed returns the campaigns that finished without error.
func (out *outcome) completed() []*campaignRun {
	var done []*campaignRun
	for _, r := range out.campaigns {
		if r.Err == nil {
			done = append(done, r)
		}
	}
	return done
}

// cells totals the completed campaigns' cells.
func (out *outcome) cells() int {
	n := 0
	for _, r := range out.completed() {
		n += r.Cells
	}
	return n
}

// checkCounts asserts the program counts that must match the traffic
// exactly: one WAL append and one fault-list lookup per completed
// cell, and in the fleet one lease completion per cell.
func (out *outcome) checkCounts() {
	cells := float64(out.cells())
	if n := out.counts.sum("twm_jobstore_wal_appends_total"); n != cells {
		out.v.fail("twm_jobstore_wal_appends_total moved %v for %v completed cells", n, cells)
	}
	lookups := out.counts.sum("twm_engine_fault_cache_hits_total") + out.counts.sum("twm_engine_fault_cache_misses_total")
	if expired := out.counts.label("twm_cluster_lease_events_total", "kind", "expire"); expired == 0 && lookups != cells {
		out.v.fail("fault-cache lookups moved %v for %v completed cells", lookups, cells)
	}
	if out.w.cluster {
		if n := out.counts.label("twm_cluster_lease_events_total", "kind", "complete"); n != cells {
			out.v.fail("lease completions moved %v for %v completed cells", n, cells)
		}
	}
}

// traced replays the measured campaigns in-process twice, spans on and
// then off, and writes the spans out.
func traced(ctx context.Context, o options, w workload, out *outcome, startData, dir string) (*traceOut, error) {
	runs := replayOrder(out.campaigns)
	budget := time.Duration(o.seconds) * time.Second
	on, err := replay(ctx, w, runs, out.queries, startData, filepath.Join(dir, "replay-on"), true, budget)
	if err != nil {
		return nil, err
	}
	off, err := replay(ctx, w, runs[:on.campaigns], out.queries, startData, filepath.Join(dir, "replay-off"), false, 0)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, "trace-"+w.name+".ndjson")
	if err := writeSpans(path, on.spans); err != nil {
		return nil, err
	}
	return &traceOut{on: on, off: off, path: path}, nil
}
