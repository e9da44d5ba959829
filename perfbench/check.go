package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
)

// knownCells maps job sequence → cell results, for every job whose
// results the benchmark knows: the seeded history and each completed
// campaign. Query answers are checked against it.
type knownCells map[int][]campaign.CellResult

// seedHistory journals historyJobs settled jobs (c1, c2, ...) into a
// fresh datadir through the jobstore, exactly as twmd would have left
// them, and returns their results. The first twmd start on the datadir
// then builds the warehouse index from these journals.
func seedHistory(ctx context.Context, dir string, seed int64) (knownCells, error) {
	store, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	known := make(knownCells, historyJobs)
	for n := 1; n <= historyJobs; n++ {
		spec := historySpec(seed, n)
		agg, err := campaign.Engine{}.Run(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("history job %d: %w", n, err)
		}
		jn, err := store.Create(fmt.Sprintf("c%d", n), spec)
		if err != nil {
			return nil, err
		}
		for _, r := range agg.Cells {
			jn.Emit(r)
		}
		if err := jn.Err(); err != nil {
			return nil, err
		}
		if err := jn.Finish("done", ""); err != nil {
			return nil, err
		}
		known[n] = agg.Cells
	}
	return known, nil
}

// verification is the outcome of the correctness gate.
type verification struct {
	failed int
	notes  []string
}

func (v *verification) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// verifyCampaigns requires every completed campaign's /results to be
// byte-identical to an in-process campaign.Engine run of the same
// spec, and its /events stream to carry one line per cell. Cluster
// campaigns are held to the same in-process (local) result. Results
// are added to known.
func verifyCampaigns(ctx context.Context, runs []*campaignRun, known knownCells, v *verification) error {
	want := make(map[string][]byte)
	for _, r := range runs {
		if r.Err != nil {
			continue
		}
		exp, ok := want[string(r.Body)]
		if !ok {
			agg, err := campaign.Engine{}.Run(ctx, r.Spec)
			if err != nil {
				return fmt.Errorf("reference run of %s: %w", r.ID, err)
			}
			b, err := agg.Canonical()
			if err != nil {
				return err
			}
			exp = append(b, '\n')
			want[string(r.Body)] = exp
		}
		if !bytes.Equal(r.Result, exp) {
			v.fail("%s: /results differ from the in-process engine run", r.ID)
			continue
		}
		if r.Events != r.Cells {
			v.fail("%s: %d event lines for %d cells", r.ID, r.Events, r.Cells)
		}
		var agg campaign.Aggregate
		if err := json.Unmarshal(r.Result, &agg); err != nil {
			v.fail("%s: decode results: %v", r.ID, err)
			continue
		}
		r.Faults = agg.Faults
		if seq, ok := jobSeq(r.ID); ok {
			known[seq] = agg.Cells
		}
	}
	return nil
}

// queryRecord is the wire form of one /campaigns/query record.
type queryRecord struct {
	ID       string `json:"id"`
	Cell     int    `json:"cell"`
	Test     string `json:"test"`
	Width    int    `json:"width"`
	Words    int    `json:"words"`
	Scheme   string `json:"scheme"`
	Mode     string `json:"mode"`
	Faults   int    `json:"faults"`
	Detected int    `json:"detected"`
	TCM      int    `json:"tcm"`
	TCP      int    `json:"tcp"`
}

// verifyQueries requires every record a query returned to satisfy the
// query's filters and to equal the known result of its job and cell.
func verifyQueries(queries []*queryRun, known knownCells, v *verification) {
	for _, q := range queries {
		if q.Err != nil {
			continue
		}
		var page struct {
			Results []queryRecord `json:"results"`
		}
		if err := json.Unmarshal(q.Body, &page); err != nil {
			v.fail("query %+v: decode: %v", q.Q, err)
			continue
		}
		if !queryAnswerOK(q.Q, page.Results, known) {
			v.fail("query %+v: a record disagrees with its filter or its job's results", q.Q)
		}
	}
}

// queryAnswerOK checks one query page.
func queryAnswerOK(q query, recs []queryRecord, known knownCells) bool {
	if len(recs) > q.Limit {
		return false
	}
	for _, rec := range recs {
		if rec.Test != q.Test || rec.Width != q.Width ||
			(q.Words != 0 && rec.Words != q.Words) ||
			(q.Scheme != "" && rec.Scheme != q.Scheme) {
			return false
		}
		seq, ok := jobSeq(rec.ID)
		if !ok || seq < q.MinJob {
			return false
		}
		cells := known[seq]
		if rec.Cell < 0 || rec.Cell >= len(cells) {
			return false
		}
		c := cells[rec.Cell]
		if c.Test != rec.Test || c.Width != rec.Width || c.Words != rec.Words ||
			c.Scheme != rec.Scheme || c.Mode != rec.Mode ||
			c.Faults != rec.Faults || c.Detected != rec.Detected ||
			c.TCM != rec.TCM || c.TCP != rec.TCP {
			return false
		}
	}
	return true
}
