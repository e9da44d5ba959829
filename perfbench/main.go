// Command perfbench is twmarch's end-to-end benchmark. It starts the
// twmd (and, for the fleet workload, twmw) built from this tree with
// their shipped default flags, drives seeded closed-loop campaign
// traffic at it over HTTP, checks every result against an in-process
// campaign.Engine run, and prints each metric by name and unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1
// the same traffic is followed by an in-process replay of the measured
// campaigns through each layer's public functions, timed span by span,
// and the metrics are the per-layer figures. Run it from the
// repository root through its wrapper, which builds the binaries:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
//
// Workloads (see workload.go): grid, interactive, yield, fleet. The
// command exits 1 on any correctness mismatch (after printing the
// result line) and 2 when the benchmark itself cannot run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated specs and queries")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the measured campaigns in-process under spans and reports per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "directory holding the twmd and twmw binaries")
	fs.StringVar(&o.work, "work", "", "scratch directory for datadirs, logs and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || o.bin == "" || o.work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -bin and -work\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := bench(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	printReport(os.Stdout, o, out)
	if err := printResult(os.Stdout, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if out.v.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
