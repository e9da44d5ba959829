package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoFile reads a file relative to the repository root (this package
// lives two levels below it).
func repoFile(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBenchListInSync keeps scripts/benchlist.txt the single source of
// truth for the tracked benchmarks: docs/PERFORMANCE.md quotes it
// verbatim, both CI bench jobs read it, and every BENCH_BASELINE.json
// entry is on it (a baseline entry off the list would fail the gate as
// "missing from fresh run").
func TestBenchListInSync(t *testing.T) {
	list := strings.Fields(repoFile(t, "scripts/benchlist.txt"))
	if len(list) == 0 {
		t.Fatal("scripts/benchlist.txt is empty")
	}
	onList := make(map[string]bool, len(list))
	for _, name := range list {
		if !strings.HasPrefix(name, "Benchmark") || onList[name] {
			t.Errorf("benchlist entry %q is malformed or repeated", name)
		}
		onList[name] = true
	}

	doc := repoFile(t, "docs/PERFORMANCE.md")
	quote := "```text\n" + strings.Join(list, "\n") + "\n```"
	if !strings.Contains(doc, quote) {
		t.Errorf("docs/PERFORMANCE.md does not quote scripts/benchlist.txt verbatim; want the block:\n%s", quote)
	}

	ci := repoFile(t, ".github/workflows/ci.yml")
	if n := strings.Count(ci, `-bench "$(paste -sd'|' scripts/benchlist.txt)"`); n != 2 {
		t.Errorf("ci.yml reads scripts/benchlist.txt in %d bench jobs, want 2", n)
	}
	if strings.Contains(ci, "-bench 'Benchmark") {
		t.Error("ci.yml still carries an inline benchmark regex")
	}

	var base Baseline
	if err := json.Unmarshal([]byte(repoFile(t, "BENCH_BASELINE.json")), &base); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range base.Benchmarks {
		if top, _, _ := strings.Cut(name, "/"); !onList[top] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("BENCH_BASELINE.json entries not on scripts/benchlist.txt: %v", missing)
	}
}
