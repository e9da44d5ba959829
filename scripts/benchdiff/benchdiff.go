// Command benchdiff is the benchmark-regression gate: it parses `go
// test -bench` output into a compact JSON form and compares it against
// a checked-in baseline (BENCH_BASELINE.json), failing when any
// tracked benchmark's ns/op regressed beyond the threshold. Where the
// baseline also records allocs/op for a benchmark, that is gated too.
//
//	go test -run xxx -count 3 -bench 'BenchmarkS5Coverage|...' . | tee bench.txt
//	go run ./scripts/benchdiff -bench bench.txt                  # gate
//	go run ./scripts/benchdiff -bench bench.txt -update          # refresh baseline
//
// With -count > 1 the minimum ns/op (and allocs/op) per benchmark is
// used — the standard noise filter for wall-clock benchmarks. Every
// benchmark present in the baseline must appear in the fresh run (a
// silently dropped benchmark would otherwise disable its gate).
// Benchmarks in the fresh run that the baseline does not track are
// reported but do not fail the gate; add them with -update.
//
// Baseline numbers are machine-dependent. -calibrate names a small,
// stable benchmark (BenchmarkMemory in this repo's CI) whose
// fresh/baseline ratio rescales the whole baseline before gating,
// factoring a uniformly faster or slower runner out of the
// comparison; refresh with -update when results drift for reasons the
// calibration cannot express (a new runner class with different
// relative costs, an accepted optimization). allocs/op does not depend
// on machine speed, so it is gated unscaled: a benchmark fails when its
// fresh allocs/op exceed the baseline's by more than the threshold, or
// when the fresh run does not report allocs/op at all (run it with
// b.ReportAllocs or -benchmem).
//
// With -load the gate switches subject: instead of go test -bench
// output it reads a twmload soak report (cmd/twmload) and compares
// per-endpoint p99 latency against LOAD_BASELINE.json, with a looser
// default threshold (-threshold 3.0) suited to wall-clock load
// numbers on shared runners. -update refreshes the load baseline from
// the report; a report carrying invariant violations always fails.
//
//	go run ./cmd/twmload -profile chaos -seed 1 -report load-report.json
//	go run ./scripts/benchdiff -load load-report.json            # gate
//	go run ./scripts/benchdiff -load load-report.json -update    # refresh
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the JSON schema of BENCH_BASELINE.json.
type Baseline struct {
	// Note documents how the numbers were produced.
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to
	// its recorded cost.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's recorded cost. AllocsPerOp is optional: nil
// when the benchmark does not report allocations (or, in a baseline,
// when its allocations are not gated).
type Entry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkS5Coverage-8   4118   559597 ns/op   92.98 coverage_pct
//
// The -N GOMAXPROCS suffix is stripped so baselines are stable across
// machines with different core counts. allocsField finds the allocs/op
// figure anywhere after it.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsField = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// parseBench extracts ns/op and, where reported, allocs/op per
// benchmark from go test -bench output, keeping each one's minimum
// across repeated runs (-count > 1).
func parseBench(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %v", sc.Text(), err)
		}
		var allocs *float64
		if a := allocsField.FindStringSubmatch(sc.Text()); a != nil {
			v, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad allocs/op in %q: %v", sc.Text(), err)
			}
			allocs = &v
		}
		cur, ok := out[m[1]]
		if !ok || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		if allocs != nil && (cur.AllocsPerOp == nil || *allocs < *cur.AllocsPerOp) {
			cur.AllocsPerOp = allocs
		}
		out[m[1]] = cur
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark results found in input")
	}
	return out, nil
}

// gate compares fresh results against the baseline and returns the
// report lines plus the names that failed the threshold.
//
// When calibrate names a benchmark present on both sides, every
// baseline ns/op is scaled by the calibration benchmark's fresh/base
// ratio before comparison. The calibration anchor should be a small,
// stable workload (BenchmarkMemory here): it factors a uniformly
// faster or slower CI runner class out of the comparison, so the gate
// catches benchmarks that regressed relative to the machine, not
// machines that differ from the one the baseline was recorded on. The
// anchor itself is exempted from gating (its drift defines the
// scale). allocs/op, where the baseline records it, is compared
// unscaled against the same threshold.
func gate(base, fresh map[string]Entry, threshold float64, calibrate string) (report []string, failures []string) {
	scale := 1.0
	if calibrate != "" {
		b, okB := base[calibrate]
		f, okF := fresh[calibrate]
		switch {
		case okB && okF && b.NsPerOp > 0:
			scale = f.NsPerOp / b.NsPerOp
			report = append(report, fmt.Sprintf("calibration %s: baseline scaled by %.3f", calibrate, scale))
		default:
			report = append(report, fmt.Sprintf("FAIL calibration benchmark %s missing from baseline or fresh run", calibrate))
			failures = append(failures, calibrate)
		}
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if n == calibrate {
			continue
		}
		b := base[n]
		b.NsPerOp *= scale
		f, ok := fresh[n]
		if !ok {
			report = append(report, fmt.Sprintf("FAIL %-28s missing from fresh run (baseline %.0f ns/op)", n, b.NsPerOp))
			failures = append(failures, n)
			continue
		}
		delta := f.NsPerOp/b.NsPerOp - 1
		ok = delta <= threshold
		report = append(report, fmt.Sprintf("%s %-28s baseline %12.0f ns/op   fresh %12.0f ns/op   %+6.1f%%",
			status(ok), n, b.NsPerOp, f.NsPerOp, 100*delta))
		if b.AllocsPerOp != nil {
			line, allocsOK := gateAllocs(n, *b.AllocsPerOp, f.AllocsPerOp, threshold)
			report = append(report, line)
			ok = ok && allocsOK
		}
		if !ok {
			failures = append(failures, n)
		}
	}
	var extra []string
	for n := range fresh {
		if _, ok := base[n]; !ok && n != calibrate {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		report = append(report, fmt.Sprintf("new  %-28s fresh %12.0f ns/op (not gated; add with -update)", n, fresh[n].NsPerOp))
	}
	return report, failures
}

func status(ok bool) string {
	if ok {
		return "ok  "
	}
	return "FAIL"
}

// gateAllocs compares one benchmark's fresh allocs/op (nil when the
// fresh run did not report it) against its baseline figure.
func gateAllocs(name string, base float64, fresh *float64, threshold float64) (string, bool) {
	if fresh == nil {
		return fmt.Sprintf("FAIL %-28s allocs/op missing from fresh run (baseline %.0f allocs/op)", name, base), false
	}
	ok := *fresh <= base*(1+threshold)
	return fmt.Sprintf("%s %-28s baseline %12.0f allocs/op fresh %12.0f allocs/op", status(ok), name, base, *fresh), ok
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	benchPath := fs.String("bench", "-", "go test -bench output to parse (\"-\" = stdin)")
	basePath := fs.String("baseline", "", "baseline JSON to gate against or update (default BENCH_BASELINE.json, or LOAD_BASELINE.json with -load)")
	threshold := fs.Float64("threshold", -1, "maximum tolerated regression (default 0.25 = +25% ns/op, or 3.0 = 4x p99 with -load)")
	update := fs.Bool("update", false, "rewrite the baseline from the fresh results instead of gating")
	outPath := fs.String("out", "", "also write the fresh results as JSON (CI artifact)")
	note := fs.String("note", "", "with -update: provenance note stored in the baseline")
	calibrate := fs.String("calibrate", "", "scale the baseline by this benchmark's fresh/base ns/op ratio before gating (machine-speed normalization)")
	loadPath := fs.String("load", "", "gate a twmload JSON report (per-endpoint p99) instead of bench output")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *loadPath != "" {
		if *basePath == "" {
			*basePath = "LOAD_BASELINE.json"
		}
		if *threshold < 0 {
			*threshold = 3.0
		}
		return runLoad(*loadPath, *basePath, *threshold, *update, *note, stdout)
	}
	if *basePath == "" {
		*basePath = "BENCH_BASELINE.json"
	}
	if *threshold < 0 {
		*threshold = 0.25
	}

	in := io.Reader(os.Stdin)
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	fresh, err := parseBench(in)
	if err != nil {
		return err
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, Baseline{Note: *note, Benchmarks: fresh}); err != nil {
			return err
		}
	}
	if *update {
		n := *note
		if n == "" {
			n = "refresh with: go test -run xxx -count 3 -bench <family> . | go run ./scripts/benchdiff -update"
		}
		if err := writeJSON(*basePath, Baseline{Note: n, Benchmarks: fresh}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchdiff: baseline %s updated with %d benchmarks\n", *basePath, len(fresh))
		return nil
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchdiff: %s: %v", *basePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("benchdiff: %s tracks no benchmarks", *basePath)
	}
	report, failures := gate(base.Benchmarks, fresh, *threshold, *calibrate)
	for _, l := range report {
		fmt.Fprintln(stdout, l)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchdiff: %d benchmark(s) regressed beyond %.0f%%: %v", len(failures), 100**threshold, failures)
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), 100**threshold)
	return nil
}

func writeJSON(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
