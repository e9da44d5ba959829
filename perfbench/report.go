package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples or base behind the value
	ok    bool   // false: not measurable on this workload or run
	note  string // why not, or how it was formed
}

// latency reports the p-th percentile of a latency series, or why the
// sample rule withholds it.
func latency(name string, xs []float64, p float64) metric {
	v, ok := percentile(xs, p)
	m := metric{name: name, unit: "ms", value: v, n: len(xs), ok: ok}
	if !ok {
		need := int(float64(minBeyond)/(1-p/100) + 0.5)
		m.note = fmt.Sprintf("needs %d samples for %d beyond it", need, minBeyond)
	}
	return m
}

// endToEnd derives the thirteen end-to-end metrics.
func endToEnd(out *outcome) []metric {
	done := out.completed()
	var faults, cells int
	var total, submit, queries []float64
	for _, r := range done {
		faults += r.Faults
		cells += r.Cells
		total = append(total, r.TotalMS)
		submit = append(submit, r.SubmitMS)
	}
	for _, q := range out.queries {
		if q.Err == nil {
			queries = append(queries, q.MS)
		}
	}
	wall := out.wall.Seconds()
	return []metric{
		{name: "setup_s", unit: "s", value: median(out.setup), n: len(out.setup), ok: true,
			note: fmt.Sprintf("median of %d starts", len(out.setup))},
		{name: "faults_per_s", unit: "1/s", value: ratio(float64(faults), wall), n: faults, ok: cells > 0},
		{name: "cells_per_s", unit: "1/s", value: ratio(float64(cells), wall), n: cells, ok: cells > 0},
		latency("campaign_p50_ms", total, 50),
		latency("campaign_p99_ms", total, 99),
		latency("submit_p50_ms", submit, 50),
		latency("submit_p99_ms", submit, 99),
		latency("query_p50_ms", queries, 50),
		latency("query_p99_ms", queries, 99),
		{name: "error_rate", unit: "ratio", value: ratio(float64(out.v.failed), float64(out.attempted)), n: out.attempted, ok: out.attempted > 0},
		{name: "cpu_ms_per_cell", unit: "ms", value: ratio(ms(out.cpu), float64(cells)), n: cells, ok: cells > 0},
		{name: "peak_rss_mb", unit: "MiB", value: float64(out.hwm) / (1 << 20), n: len(out.w.procNames()), ok: out.hwm > 0},
		{name: "disk_bytes_per_cell", unit: "B", value: ratio(float64(out.diskDelta), float64(cells)), n: cells, ok: cells > 0},
	}
}

// e2eJSON are the end-to-end metrics every workload reports in the
// result line. The rest are printed in the table only: grid and yield
// complete too few campaigns for any percentile to meet the sample
// rule, a zero error rate has no median to bound (failures are in
// "failed" instead), and interactive keeps every job in memory, so its
// peak RSS tracks how many campaigns the run happened to complete.
var e2eJSON = []string{"setup_s", "faults_per_s", "cells_per_s", "cpu_ms_per_cell", "disk_bytes_per_cell"}

// procNames names the daemons a workload runs.
func (w workload) procNames() []string {
	if w.cluster {
		return []string{"twmd", "twmw"}
	}
	return []string{"twmd"}
}

// layerDef is one per-layer metric: the end-to-end metric it should
// move, on which workload, and whether every workload measures it (only
// those go into the traced result line).
type layerDef struct {
	name, unit, moves, on string
	all                   bool
}

var layerDefs = []layerDef{
	{"twmd.queue_wait_ms", "ms", "campaign_p99_ms", "interactive", true},
	{"twmd.submit_residual_ms", "ms", "submit_p50_ms", "interactive", true},
	{"campaign.validate_us", "us", "submit_p50_ms", "interactive", true},
	{"campaign.fold_us_per_cell", "us", "cells_per_s", "interactive, fleet", true},
	{"campaign.canonical_us", "us", "campaign_p50_ms", "interactive", true},
	{"campaign.fault_cache_hit_ratio", "ratio", "faults_per_s", "grid", true},
	{"core.transform_us_per_cell", "us", "cells_per_s", "interactive", true},
	{"faults.enumerate_ms_per_geometry", "ms", "faults_per_s", "grid", true},
	{"faultsim.reference_us_per_cell", "us", "cells_per_s", "interactive", true},
	{"faultsim.lane_ns_per_fault", "ns", "faults_per_s", "grid", false},
	{"faultsim.scalar_ns_per_fault", "ns", "faults_per_s", "yield", false},
	{"faultsim.syndrome_ns_per_fault", "ns", "faults_per_s", "yield", false},
	{"diagnose.analyze_ns_per_fault", "ns", "faults_per_s", "yield", false},
	{"repair.allocate_us_per_fault", "us", "faults_per_s", "yield", false},
	{"jobstore.create_us", "us", "submit_p50_ms", "interactive", true},
	{"jobstore.append_us_per_cell", "us", "cells_per_s", "interactive", true},
	{"jobstore.finish_us", "us", "campaign_p50_ms", "interactive", true},
	{"jobstore.recover_ms", "ms", "setup_s", "interactive", true},
	{"jobstore.wal_bytes_per_cell", "B", "disk_bytes_per_cell", "interactive", true},
	{"warehouse.ingest_us_per_cell", "us", "cells_per_s", "interactive", true},
	{"warehouse.checkpoint_ms", "ms", "campaign_p99_ms", "interactive", true},
	{"warehouse.search_ms", "ms", "query_p50_ms", "interactive", false},
	{"warehouse.cache_hit_ratio", "ratio", "query_p99_ms", "interactive", true},
	{"warehouse.open_ms", "ms", "setup_s", "interactive", true},
	{"warehouse.bytes_per_cell", "B", "disk_bytes_per_cell", "interactive", true},
	{"cluster.lease_us", "us", "cells_per_s", "fleet", false},
	{"cluster.complete_us", "us", "campaign_p50_ms", "fleet", false},
	{"cluster.wire_bytes_per_cell", "B", "cpu_ms_per_cell", "fleet", false},
	{"cluster.leases_per_cell", "ratio", "cells_per_s", "fleet", false},
	{"cluster.retries", "count", "error_rate", "fleet", false},
	{"tracing.spans_per_cell", "count", "cpu_ms_per_cell", "interactive", true},
}

// perLayer derives every per-layer metric from the traced replay and
// the daemon's counts.
func perLayer(out *outcome) map[string]metric {
	t := out.trace.on
	calls := byName(t.spans)
	m := make(map[string]metric)
	set := func(name string, v float64, n int, ok bool) {
		m[name] = metric{name: name, value: v, n: n, ok: ok}
	}
	// mean span time of one call, ns.
	mean := func(call string) (float64, int) {
		c := calls[call]
		return ratio(float64(c.Total), float64(c.Spans)), c.Spans
	}
	perSpan := func(name, call string, scale float64) {
		v, n := mean(call)
		set(name, v/scale, n, n > 0)
	}
	// span time per unit of counted work.
	perCount := func(name, call string, scale float64) {
		c := calls[call]
		set(name, ratio(float64(c.Total), float64(c.Counts))/scale, c.Counts, c.Counts > 0)
	}
	const us, msec = 1e3, 1e6

	var submit, queue []float64
	for _, r := range out.completed() {
		submit = append(submit, r.SubmitMS)
		queue = append(queue, r.QueueWaitMS)
	}
	set("twmd.queue_wait_ms", median(queue), len(queue), len(queue) > 0)
	validate, _ := mean("campaign.validate")
	create, _ := mean("jobstore.create")
	set("twmd.submit_residual_ms", median(submit)-(validate+create)/msec, len(submit), len(submit) > 0)
	perSpan("campaign.validate_us", "campaign.validate", us)
	perSpan("campaign.fold_us_per_cell", "campaign.fold", us)
	perSpan("campaign.canonical_us", "campaign.canonical", us)
	hits := out.counts.sum("twm_engine_fault_cache_hits_total")
	misses := out.counts.sum("twm_engine_fault_cache_misses_total")
	set("campaign.fault_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses), hits+misses > 0)
	perSpan("core.transform_us_per_cell", "core.transform", us)
	perSpan("faults.enumerate_ms_per_geometry", "faults.enumerate", msec)
	perSpan("faultsim.reference_us_per_cell", "faultsim.reference", us)
	perCount("faultsim.lane_ns_per_fault", "faultsim.lanes", 1)
	perCount("faultsim.scalar_ns_per_fault", "faultsim.scalar", 1)
	perCount("faultsim.syndrome_ns_per_fault", "faultsim.syndrome", 1)
	perCount("diagnose.analyze_ns_per_fault", "diagnose.analyze", 1)
	perCount("repair.allocate_us_per_fault", "repair.allocate", us)
	perSpan("jobstore.create_us", "jobstore.create", us)
	perSpan("jobstore.append_us_per_cell", "jobstore.append", us)
	perSpan("jobstore.finish_us", "jobstore.finish", us)
	perSpan("jobstore.recover_ms", "jobstore.recover", msec)
	set("jobstore.wal_bytes_per_cell", ratio(float64(t.walBytes), float64(t.cells)), t.cells, t.cells > 0)
	perSpan("warehouse.ingest_us_per_cell", "warehouse.ingest", us)
	perSpan("warehouse.checkpoint_ms", "warehouse.checkpoint", msec)
	perSpan("warehouse.search_ms", "warehouse.search", msec)
	reads := float64(t.cache.Hits + t.cache.Misses)
	set("warehouse.cache_hit_ratio", ratio(float64(t.cache.Hits), reads), int(reads), reads > 0)
	perSpan("warehouse.open_ms", "warehouse.open", msec)
	set("warehouse.bytes_per_cell", ratio(float64(t.indexBytes), float64(t.indexed)), t.indexed, t.indexed > 0)
	perSpan("cluster.lease_us", "cluster.lease", us)
	perSpan("cluster.complete_us", "cluster.complete", us)
	fleet := out.w.cluster
	set("cluster.wire_bytes_per_cell", ratio(float64(t.wireBytes), float64(t.cells)), t.cells, fleet)
	cells := float64(out.cells())
	set("cluster.leases_per_cell", ratio(out.counts.label("twm_cluster_lease_events_total", "kind", "lease"), cells), int(cells), fleet)
	set("cluster.retries", out.counts.sum("twm_worker_retries_total"), int(cells), fleet)
	set("tracing.spans_per_cell", ratio(out.counts.label("twm_tracing_spans_total", "stage", "finished"), cells), int(cells), cells > 0)
	for _, d := range layerDefs {
		x := m[d.name]
		x.unit = d.unit
		m[d.name] = x
	}
	return m
}

// countNames are the program counters reported beside the timings.
var countNames = []string{
	"twm_engine_fault_cache_hits_total",
	"twm_engine_fault_cache_misses_total",
	"twm_jobstore_wal_appends_total",
	"twm_warehouse_pager_hits_total",
	"twm_warehouse_pager_misses_total",
	"twm_warehouse_pager_evictions_total",
	"twm_cluster_lease_events_total",
	"twm_worker_retries_total",
	"twm_tracing_spans_total",
}

// printReport writes the human-readable report.
func printReport(wr io.Writer, o options, out *outcome) {
	fmt.Fprintf(wr, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	cells, faults := 0, 0
	for _, r := range out.completed() {
		cells += r.Cells
		faults += r.Faults
	}
	fmt.Fprintf(wr, "%d campaigns (%d cells, %d faults) in %.3f s from %d client(s); %d operations, %d failed\n",
		len(out.completed()), cells, faults, out.wall.Seconds(), out.w.clients, out.attempted, out.v.failed)
	for _, n := range out.v.notes {
		fmt.Fprintf(wr, "  FAILED: %s\n", n)
	}
	fmt.Fprintf(wr, "\n%-34s %14s %-6s %8s\n", "end-to-end metric", "value", "unit", "n")
	for _, m := range endToEnd(out) {
		printMetric(wr, m, "")
	}
	fmt.Fprintf(wr, "\nprogram counts over the measured phase (%s):\n", strings.Join(out.w.procNames(), " + "))
	var keys []string
	for k, v := range out.counts {
		for _, n := range countNames {
			if (k == n || strings.HasPrefix(k, n+"{")) && v != 0 {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(wr, "  %-60s %12.0f\n", k, out.counts[k])
	}
	if out.trace == nil {
		return
	}
	t := out.trace
	fmt.Fprintf(wr, "\ntraced replay: %d campaigns, %d cells in-process; spans in %s\n", t.on.campaigns, t.on.cells, t.path)
	fmt.Fprintf(wr, "%-34s %14s %-6s %8s  %-20s %s\n", "per-layer metric", "value", "unit", "n", "moves", "on")
	layers := perLayer(out)
	for _, d := range layerDefs {
		printMetric(wr, layers[d.name], fmt.Sprintf("  %-20s %s", d.moves, d.on))
	}
	fmt.Fprintf(wr, "\nself time by layer (share of all span self time):\n")
	self := byLayer(t.on.spans)
	var total int64
	var names []string
	for l, v := range self {
		total += v
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, l := range names {
		fmt.Fprintf(wr, "  %-12s %10.1f ms %6.1f%%\n", l, float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(total)))
	}
	fmt.Fprintf(wr, "\nspans by call:\n  %-24s %8s %12s %12s %12s\n", "name", "spans", "total ms", "self ms", "count")
	calls := byName(t.on.spans)
	names = names[:0]
	for n := range calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := calls[n]
		fmt.Fprintf(wr, "  %-24s %8d %12.3f %12.3f %12d\n", n, c.Spans, float64(c.Total)/1e6, float64(c.Self)/1e6, c.Counts)
	}
	on, off := t.on.wall.Seconds(), t.off.wall.Seconds()
	fmt.Fprintf(wr, "\nbenchmark tracing overhead: replay %.3f s with spans, %.3f s without (%+.1f%%)\n", on, off, 100*ratio(on-off, off))
}

func printMetric(wr io.Writer, m metric, tail string) {
	if !m.ok {
		note := m.note
		if note == "" {
			note = "not exercised by this workload"
		}
		fmt.Fprintf(wr, "%-34s %14s %-6s %8d  (%s)%s\n", m.name, "-", m.unit, m.n, note, tail)
		return
	}
	note := ""
	if m.note != "" {
		note = "  (" + m.note + ")"
	}
	fmt.Fprintf(wr, "%-34s %14.6g %-6s %8d%s%s\n", m.name, m.value, m.unit, m.n, note, tail)
}

// resultLine is the final JSON line.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the result line: end-to-end metrics untraced, the
// per-layer metrics every workload measures when traced.
func result(out *outcome) resultLine {
	line := resultLine{
		Correct:   out.v.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.v.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	if out.trace == nil {
		all := make(map[string]metric)
		for _, m := range endToEnd(out) {
			all[m.name] = m
		}
		for _, n := range e2eJSON {
			line.Metrics[n] = jsonMetric{Value: all[n].value, Unit: all[n].unit}
		}
		return line
	}
	layers := perLayer(out)
	for _, d := range layerDefs {
		if d.all {
			line.Metrics[d.name] = jsonMetric{Value: layers[d.name].value, Unit: d.unit}
		}
	}
	return line
}

func printResult(wr io.Writer, out *outcome) error {
	b, err := json.Marshal(result(out))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(wr, "%s\n", b)
	return err
}
