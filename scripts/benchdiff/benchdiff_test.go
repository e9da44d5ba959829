package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: twmarch
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkS5Coverage-8       4118    559597 ns/op    92.98 coverage_pct    1368 faults
BenchmarkS5Coverage-8       4000    571000 ns/op    92.98 coverage_pct    1368 faults
BenchmarkDetectsFast-8      3964    558495 ns/op    1368 faults
BenchmarkCampaignParallel   3468    698463 ns/op
PASS
ok      twmarch 12.223s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	// -count repeats keep the minimum; the -N suffix is stripped.
	if got["BenchmarkS5Coverage"].NsPerOp != 559597 {
		t.Errorf("S5Coverage = %v, want min 559597", got["BenchmarkS5Coverage"].NsPerOp)
	}
	if got["BenchmarkCampaignParallel"].NsPerOp != 698463 {
		t.Errorf("CampaignParallel = %v", got["BenchmarkCampaignParallel"].NsPerOp)
	}
	if len(got) != 3 {
		t.Errorf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestGate(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1000},
		"BenchmarkB": {NsPerOp: 1000},
		"BenchmarkC": {NsPerOp: 1000},
	}
	fresh := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1200}, // +20%: within a 25% threshold
		"BenchmarkB": {NsPerOp: 1300}, // +30%: regression
		// BenchmarkC missing: must fail
		"BenchmarkD": {NsPerOp: 500}, // untracked: reported, not gated
	}
	report, failures := gate(base, fresh, 0.25, "")
	if len(failures) != 2 || failures[0] != "BenchmarkB" || failures[1] != "BenchmarkC" {
		t.Fatalf("failures = %v, want [BenchmarkB BenchmarkC]", failures)
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"ok   BenchmarkA", "FAIL BenchmarkB", "missing from fresh run", "new  BenchmarkD"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
}

// Calibration rescales the baseline by the anchor's drift: a machine
// that is uniformly 2x slower must not fail the gate, while a
// benchmark that regressed beyond the machine's own drift must.
func TestGateCalibrated(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkMem": {NsPerOp: 100}, // calibration anchor
		"BenchmarkA":   {NsPerOp: 1000},
		"BenchmarkB":   {NsPerOp: 1000},
	}
	fresh := map[string]Entry{
		"BenchmarkMem": {NsPerOp: 200},  // machine is 2x slower
		"BenchmarkA":   {NsPerOp: 2100}, // 2.1x: within 25% of the scaled baseline
		"BenchmarkB":   {NsPerOp: 2600}, // 2.6x: genuine regression
	}
	report, failures := gate(base, fresh, 0.25, "BenchmarkMem")
	if len(failures) != 1 || failures[0] != "BenchmarkB" {
		t.Fatalf("failures = %v, want [BenchmarkB]:\n%s", failures, strings.Join(report, "\n"))
	}
	if !strings.Contains(strings.Join(report, "\n"), "scaled by 2.000") {
		t.Errorf("calibration scale not reported:\n%s", strings.Join(report, "\n"))
	}
	// A missing anchor must fail loudly rather than gate against the
	// wrong machine class.
	delete(fresh, "BenchmarkMem")
	_, failures = gate(base, fresh, 0.25, "BenchmarkMem")
	if len(failures) == 0 || failures[0] != "BenchmarkMem" {
		t.Fatalf("missing calibration anchor not flagged: %v", failures)
	}
}

func TestRunUpdateThenGate(t *testing.T) {
	dir := t.TempDir()
	benchFile := filepath.Join(dir, "bench.txt")
	baseFile := filepath.Join(dir, "baseline.json")
	outFile := filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(benchFile, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-bench", benchFile, "-baseline", baseFile, "-update"}, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-bench", benchFile, "-baseline", baseFile, "-out", outFile}, &sb); err != nil {
		t.Fatalf("gate against own baseline failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "within 25% of baseline") {
		t.Errorf("unexpected gate output:\n%s", sb.String())
	}
	if _, err := os.Stat(outFile); err != nil {
		t.Errorf("artifact JSON not written: %v", err)
	}
	// A 10x regression on one benchmark must fail the gate.
	regressed := strings.Replace(sampleBench, "3964    558495 ns/op", "3964    5584950 ns/op", 1)
	if err := os.WriteFile(benchFile, []byte(regressed), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err := run([]string{"-bench", benchFile, "-baseline", baseFile}, &sb)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkDetectsFast") {
		t.Fatalf("regression not caught: err=%v\n%s", err, sb.String())
	}
}

const sampleAllocs = `BenchmarkCampaignYield-2     700   1600000 ns/op   1150000 B/op   9104 allocs/op   100.0 repairability_pct
BenchmarkCampaignYield-2     690   1700000 ns/op   1150000 B/op   9050 allocs/op   100.0 repairability_pct
BenchmarkS5Coverage-2       4118    559597 ns/op    92.98 coverage_pct
`

// allocs/op is parsed wherever a line reports it, keeping the minimum
// across repeats independently of ns/op; lines without it leave the
// field nil.
func TestParseBenchAllocs(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleAllocs))
	if err != nil {
		t.Fatal(err)
	}
	y := got["BenchmarkCampaignYield"]
	if y.NsPerOp != 1600000 || y.AllocsPerOp == nil || *y.AllocsPerOp != 9050 {
		t.Errorf("CampaignYield = %+v, want 1600000 ns/op and min 9050 allocs/op", y)
	}
	if a := got["BenchmarkS5Coverage"].AllocsPerOp; a != nil {
		t.Errorf("S5Coverage allocs/op = %v, want nil", *a)
	}
}

func allocs(v float64) *float64 { return &v }

// allocs/op is gated only where the baseline records it, against the
// same threshold but without calibration scaling, and a fresh run that
// stops reporting it fails.
func TestGateAllocs(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkMem": {NsPerOp: 100},
		"BenchmarkA":   {NsPerOp: 1000, AllocsPerOp: allocs(100)},
		"BenchmarkB":   {NsPerOp: 1000, AllocsPerOp: allocs(100)},
		"BenchmarkC":   {NsPerOp: 1000, AllocsPerOp: allocs(100)},
		"BenchmarkD":   {NsPerOp: 1000},
		"BenchmarkE":   {NsPerOp: 1000, AllocsPerOp: allocs(0)},
	}
	fresh := map[string]Entry{
		"BenchmarkMem": {NsPerOp: 200},                              // machine is 2x slower
		"BenchmarkA":   {NsPerOp: 2000, AllocsPerOp: allocs(120)},   // +20% allocs: ok
		"BenchmarkB":   {NsPerOp: 2000, AllocsPerOp: allocs(130)},   // +30% allocs: fails unscaled
		"BenchmarkC":   {NsPerOp: 2000},                             // allocs/op no longer reported
		"BenchmarkD":   {NsPerOp: 2000, AllocsPerOp: allocs(10000)}, // allocs not gated
		"BenchmarkE":   {NsPerOp: 2000, AllocsPerOp: allocs(1)},     // any allocation over a zero baseline
	}
	report, failures := gate(base, fresh, 0.25, "BenchmarkMem")
	want := []string{"BenchmarkB", "BenchmarkC", "BenchmarkE"}
	if strings.Join(failures, ",") != strings.Join(want, ",") {
		t.Fatalf("failures = %v, want %v:\n%s", failures, want, strings.Join(report, "\n"))
	}
	joined := strings.Join(report, "\n")
	for _, line := range []string{"ok   BenchmarkA                   baseline          100 allocs/op",
		"FAIL BenchmarkB                   baseline          100 allocs/op",
		"FAIL BenchmarkC                   allocs/op missing from fresh run"} {
		if !strings.Contains(joined, line) {
			t.Errorf("report missing %q:\n%s", line, joined)
		}
	}
	// A benchmark failing both gates is listed once.
	fresh["BenchmarkB"] = Entry{NsPerOp: 9000, AllocsPerOp: allocs(900)}
	if _, failures = gate(base, fresh, 0.25, "BenchmarkMem"); strings.Join(failures, ",") != strings.Join(want, ",") {
		t.Errorf("failures = %v, want %v", failures, want)
	}
}

// -update records allocs/op where the run reports it, and the written
// baseline gates it.
func TestRunUpdateRecordsAllocs(t *testing.T) {
	dir := t.TempDir()
	benchFile := filepath.Join(dir, "bench.txt")
	baseFile := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(benchFile, []byte(sampleAllocs), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-bench", benchFile, "-baseline", baseFile, "-update"}, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(baseFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"allocs_per_op"`); n != 1 {
		t.Errorf("baseline records allocs_per_op %d times, want once:\n%s", n, raw)
	}
	more := strings.Replace(sampleAllocs, "9050 allocs/op", "19050 allocs/op", 1)
	more = strings.Replace(more, "9104 allocs/op", "19104 allocs/op", 1)
	if err := os.WriteFile(benchFile, []byte(more), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err = run([]string{"-bench", benchFile, "-baseline", baseFile}, &sb)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkCampaignYield") {
		t.Fatalf("allocs regression not caught: err=%v\n%s", err, sb.String())
	}
}
