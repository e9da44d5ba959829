package jobstore

import (
	"os"
	"path/filepath"
	"testing"

	"twmarch/internal/campaign"
)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:    "journal",
		Tests:   []string{"MATS"},
		Widths:  []int{2},
		Words:   []int{2, 3},
		Classes: []string{"SAF"},
		Seed:    9,
	}
}

// results simulates the spec's cells serially, for journal fixtures.
func results(t *testing.T, spec campaign.Spec) []campaign.CellResult {
	t.Helper()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]campaign.CellResult, 0, len(cells))
	for _, c := range cells {
		out = append(out, campaign.RunCell(spec, c))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res := results(t, spec)

	j, err := st.Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[:2] {
		j.Emit(r)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.ID != "c1" || got.State != "" {
		t.Fatalf("recovered job %q state %q, want c1 interrupted", got.ID, got.State)
	}
	if got.Spec.Name != spec.Name || len(got.Spec.Tests) != 1 {
		t.Fatalf("spec did not round-trip: %+v", got.Spec)
	}
	if len(got.Done) != 2 {
		t.Fatalf("recovered %d cells, want 2", len(got.Done))
	}
	for i, r := range got.Done {
		if r.Index != res[i].Index || r.Faults != res[i].Faults || r.Detected != res[i].Detected {
			t.Fatalf("cell %d did not round-trip: got %+v want %+v", i, r, res[i])
		}
	}

	// Reopen appends; the replay sees old and new lines.
	j2, err := st.Reopen("c1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[2:] {
		j2.Emit(r)
	}
	if err := j2.Finish("done", ""); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res) || jobs[0].State != "done" {
		t.Fatalf("after finish: %d cells, state %q", len(jobs[0].Done), jobs[0].State)
	}
}

func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res := results(t, spec)
	j, err := st.Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		j.Emit(r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final line as a crash mid-write would.
	wal := filepath.Join(dir, "c1", "wal.ndjson")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Done) != len(res)-1 {
		t.Fatalf("torn WAL recovered %d cells, want %d", len(jobs[0].Done), len(res)-1)
	}

	// Reopen truncates the torn fragment before appending — otherwise
	// the next record would merge into it and everything journaled
	// after this restart would be unrecoverable on the one after.
	j2, err := st.Reopen("c1")
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(res[len(res)-1])
	if err := j2.Finish("done", ""); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res) || jobs[0].State != "done" {
		t.Fatalf("after reopen-and-finish: %d cells (want %d), state %q",
			len(jobs[0].Done), len(res), jobs[0].State)
	}

	// A valid final line missing only its newline is also a torn tail.
	raw, err = os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res)-1 {
		t.Fatalf("newline-less tail counted: %d cells, want %d", len(jobs[0].Done), len(res)-1)
	}
}

func TestRecoverSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory without a spec (crash between Mkdir and rename), a
	// directory with a malformed spec, and a stray file.
	if err := os.Mkdir(filepath.Join(dir, "c7"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "c8"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "c8", "spec.json"), []byte("{"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("not a job"), 0o644)

	if _, err := st.Create("c2", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c10", testSpec()); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "c2" || jobs[1].ID != "c10" {
		t.Fatalf("recovered %+v, want [c2 c10] in numeric order", jobs)
	}
}

func TestRemoveAndIDValidation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c1", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c1", testSpec()); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := st.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("removed job still recovered: %+v", jobs)
	}
	for _, id := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := st.Create(id, testSpec()); err == nil {
			t.Errorf("id %q accepted", id)
		}
		if err := st.Remove(id); err == nil {
			t.Errorf("remove %q accepted", id)
		}
	}
	if _, err := st.Reopen("nope"); err == nil {
		t.Error("reopen of missing job accepted")
	}
	if _, err := Open(""); err == nil {
		t.Error("empty store dir accepted")
	}
}
