package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"twmarch/internal/campaign"
)

// workload is one traffic mix. The benchmark owns these generators:
// the daemons only ever see the specs they produce, and no other
// harness shares them, so the benchmark's traffic changes only when
// this file does.
type workload struct {
	name string
	// clients is the number of closed-loop clients: each waits for its
	// campaign's results before submitting the next.
	clients int
	// cluster runs twmd -cluster plus one twmw -parallel 2.
	cluster bool
	// history seeds the datadir with settled jobs before the first
	// timed start.
	history bool
	// queries interleaves GET /campaigns/query reads with submits.
	queries bool
	// maxCampaigns, when positive, ends a client's loop after this many
	// campaigns even before the deadline. Grid and yield campaigns take
	// seconds, so without a cap a run's campaign count would depend on
	// machine speed, and the per-cell disk figure (the index grows in
	// whole pages) would jump with it.
	maxCampaigns int
	// spec returns client's n-th campaign spec for the run seed.
	spec func(seed int64, client, n int) campaign.Spec
}

var workloads = map[string]workload{
	"grid":        {name: "grid", clients: 1, maxCampaigns: 3, spec: gridSpec},
	"interactive": {name: "interactive", clients: 2, history: true, queries: true, spec: interactiveSpec},
	"yield":       {name: "yield", clients: 1, maxCampaigns: 1, spec: yieldSpec},
	"fleet":       {name: "fleet", clients: 1, cluster: true, spec: fleetSpec},
}

// mix derives an independent stream seed from the run seed and up to
// two stream coordinates (splitmix64 finalizer).
func mix(seed int64, a, b int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(a+1) + 0xbf58476d1ce4e5b9*uint64(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// gridSpec is the characterization grid shaped like the paper's
// Table 3 study, resubmitted unchanged for the whole run: 4 tests × W
// 8/16/32 × 16/32 words × twm/scheme1 × compare/signature = 96 cells
// over SAF, TF and intra-word CFid faults.
func gridSpec(seed int64, _, _ int) campaign.Spec {
	return campaign.Spec{
		Name:    "grid",
		Tests:   []string{"March C-", "March U", "March B", "March LR"},
		Widths:  []int{8, 16, 32},
		Words:   []int{16, 32},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare, campaign.ModeSignature},
		Classes: []string{"SAF", "TF", "CFid"},
		Scope:   "intra",
		Seed:    mix(seed, 0, 0),
	}
}

// yieldSpec is the detect→diagnose→repair pipeline campaign: March
// C-/March U × W 8/16 × 16/32 words × both schemes × compare/signature
// = 32 cells, with two spare rows and columns and SEC-DED field ECC.
func yieldSpec(seed int64, _, _ int) campaign.Spec {
	return campaign.Spec{
		Name:    "yield",
		Tests:   []string{"March C-", "March U"},
		Widths:  []int{8, 16},
		Words:   []int{16, 32},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare, campaign.ModeSignature},
		Classes: []string{"SAF", "TF", "CFid"},
		Scope:   "intra",
		Seed:    mix(seed, 0, 0),
		Pipeline: &campaign.PipelineSpec{
			Enabled:   true,
			SpareRows: 2,
			SpareCols: 2,
			ECC:       campaign.ECCSECDED,
		},
	}
}

// matsFamily are the small tests the interactive stream draws from.
var matsFamily = []string{"MATS", "MATS+", "MATS++"}

// interactiveSpec is a small 2–4-cell campaign: one MATS-family test,
// W 2 and/or 4, one or two memory sizes in 8–16 words, both schemes,
// compare mode, SAF/TF faults. Exactly one of width and size may take
// two values, so a campaign has 2 or 4 cells.
func interactiveSpec(seed int64, client, n int) campaign.Spec {
	rng := rand.New(rand.NewSource(mix(seed, client+1, n)))
	s := campaign.Spec{
		Name:    fmt.Sprintf("i%d-%d", client, n),
		Tests:   []string{matsFamily[rng.Intn(len(matsFamily))]},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare},
		Classes: []string{"SAF", "TF"},
		Seed:    rng.Int63(),
	}
	words := 8 + rng.Intn(9)
	switch rng.Intn(3) {
	case 0:
		s.Widths, s.Words = []int{2 << rng.Intn(2)}, []int{words}
	case 1:
		s.Widths, s.Words = []int{2, 4}, []int{words}
	default:
		other := 8 + (words-8+1+rng.Intn(8))%9
		s.Widths, s.Words = []int{2 << rng.Intn(2)}, []int{words, other}
	}
	return s
}

// fleetSpec is a 432-cell sweep over the interactive stream's small
// cells: the MATS family × W 2/4 × 18 sizes drawn from 8–32 words ×
// both schemes × compare/signature, SAF/TF faults. Every cell crosses
// the lease wire, and a deep queue keeps both worker slots leasing
// back to back. Between campaigns the slots go idle and wait out the
// worker's poll interval, a fixed cost per campaign rather than a
// random one, because a single client submits and the queue drains
// the same way each time.
func fleetSpec(seed int64, client, n int) campaign.Spec {
	rng := rand.New(rand.NewSource(mix(seed, 3000+client, n)))
	words := rng.Perm(25)[:18]
	for i := range words {
		words[i] += 8
	}
	return campaign.Spec{
		Name:    fmt.Sprintf("f%d-%d", client, n),
		Tests:   matsFamily,
		Widths:  []int{2, 4},
		Words:   words,
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare, campaign.ModeSignature},
		Classes: []string{"SAF", "TF"},
		Seed:    rng.Int63(),
	}
}

// historySpec is one settled job of the interactive datadir's seeded
// history: a 48-cell MATS-family sweep (3 tests × W 2/4 × 4 sizes in
// 8–16 words × both schemes), so a few hundred jobs give an index
// several times the warehouse page cache.
func historySpec(seed int64, n int) campaign.Spec {
	rng := rand.New(rand.NewSource(mix(seed, 1000, n)))
	words := rng.Perm(9)[:4]
	for i := range words {
		words[i] += 8
	}
	return campaign.Spec{
		Name:    fmt.Sprintf("h%d", n),
		Tests:   matsFamily,
		Widths:  []int{2, 4},
		Words:   words,
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare},
		Classes: []string{"SAF", "TF"},
		Seed:    rng.Int63(),
	}
}

// historyJobs is the size of the interactive workload's seeded
// history.
const historyJobs = 250

// query is one GET /campaigns/query read.
type query struct {
	Test   string
	Width  int
	Words  int
	Scheme string
	MinJob int
	Limit  int
}

// querySpec draws client's n-th query. Half pin the full dimension
// prefix, half leave sizes open; a quarter bound the job range to the
// recent past (minJob is the newest job id the client knows).
func querySpec(seed int64, client, n, newest int) query {
	rng := rand.New(rand.NewSource(mix(seed, 2000+client, n)))
	q := query{
		Test:  matsFamily[rng.Intn(len(matsFamily))],
		Width: 2 << rng.Intn(2),
		Limit: 20 + rng.Intn(81),
	}
	if rng.Intn(2) == 0 {
		q.Words = 8 + rng.Intn(9)
		q.Scheme = []string{campaign.SchemeTWM, campaign.SchemeOne}[rng.Intn(2)]
	}
	if rng.Intn(4) == 0 && newest > 20 {
		q.MinJob = newest - 20
	}
	return q
}

// specJSON is the exact request body the benchmark submits.
func specJSON(s campaign.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Spec always marshals
	}
	return b
}
