package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
	"twmarch/internal/jobstore"
	"twmarch/internal/warehouse"
)

// replayOut is what one in-process replay measured.
type replayOut struct {
	spans     []span
	wall      time.Duration
	campaigns int
	cells     int
	// mismatches lists replayed campaigns whose canonical aggregate
	// differs from twmd's /results.
	mismatches []string
	cache      warehouse.CacheStats // page-cache delta over the replay
	walBytes   int64                // WAL bytes of the replayed jobs
	indexBytes int64                // index file size after the replay
	indexed    int                  // cells in the index after the replay
	wireBytes  int64                // lease-wire body bytes, fleet only
}

// replayer composes the layers in the order twmd does, calling each
// through its public functions.
type replayer struct {
	rec   *recorder
	sim   sim
	root  int
	store *jobstore.Store
	wh    *warehouse.Warehouse

	// Fleet: an in-process coordinator and worker over loopback HTTP.
	coord   *cluster.Coordinator
	parents sync.Map // job id → dispatch span id
	caches  sync.Map // job id → *faultCache
	wire    *wireTransport
}

// replay re-runs the given daemon campaigns (and, for interactive, its
// queries) in-process on a copy of the daemon's starting datadir. It
// stops taking new campaigns once budget has passed (0 means replay
// them all). With spans off the same calls run untraced, for the
// overhead figure.
func replay(ctx context.Context, w workload, runs []*campaignRun, queries []*queryRun, startData, dir string, on bool, budget time.Duration) (*replayOut, error) {
	if startData != "" {
		if err := copyTree(startData, dir); err != nil {
			return nil, err
		}
	}
	rp := &replayer{rec: newRecorder(on, w.name)}
	rp.sim = sim{rec: rp.rec}
	start := time.Now()
	rp.root = rp.rec.begin(0, "replay.run")

	sp := rp.rec.begin(rp.root, "jobstore.recover")
	store, err := jobstore.Open(dir)
	if err == nil {
		_, err = store.Recover()
	}
	rp.rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	rp.store = store
	idx := filepath.Join(dir, "warehouse.idx")
	sp = rp.rec.begin(rp.root, "warehouse.open")
	wh, err := warehouse.Open(idx, warehouse.Options{})
	if errors.Is(err, warehouse.ErrNeedsRebuild) {
		wh, err = warehouse.RebuildFromWAL(idx, warehouse.Options{}, store)
	}
	if err == nil {
		_, err = wh.Reconcile(store)
	}
	rp.rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	rp.wh = wh
	defer wh.Close()
	cacheBefore := wh.CacheStats()

	if w.cluster {
		defer rp.startFleet(ctx)()
	}
	out := &replayOut{}
	for _, r := range runs {
		if budget > 0 && out.campaigns > 0 && time.Since(start) > budget {
			break
		}
		b, err := rp.campaign(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.ID, err)
		}
		if !bytes.Equal(append(b, '\n'), r.Result) {
			out.mismatches = append(out.mismatches, r.ID)
		}
		out.campaigns++
		out.cells += r.Cells
		out.walBytes += fileSize(filepath.Join(dir, r.ID, "wal.ndjson"))
	}
	for _, q := range queries {
		sp := rp.rec.begin(rp.root, "warehouse.search")
		res, err := wh.Search(warehouse.Query{
			Test: q.Q.Test, Width: q.Q.Width, Words: q.Q.Words, Scheme: q.Q.Scheme,
			MinJob: uint64(q.Q.MinJob), Limit: q.Q.Limit,
		})
		rp.rec.end(sp, len(res.Records))
		if err != nil {
			return nil, err
		}
	}
	rp.rec.end(rp.root, out.cells)
	out.wall = time.Since(start)
	after := wh.CacheStats()
	out.cache = warehouse.CacheStats{
		Hits:      after.Hits - cacheBefore.Hits,
		Misses:    after.Misses - cacheBefore.Misses,
		Evictions: after.Evictions - cacheBefore.Evictions,
	}
	jobs, err := wh.IndexedJobs()
	if err != nil {
		return nil, err
	}
	for _, n := range jobs {
		out.indexed += n
	}
	if err := wh.Checkpoint(); err != nil {
		return nil, err
	}
	out.indexBytes = fileSize(idx)
	out.spans = rp.rec.snapshot()
	if rp.wire != nil {
		out.wireBytes = rp.wire.bytes.Load()
	}
	return out, nil
}

// campaign replays one job: decode and validate, create the journal,
// simulate every cell, fold/append/ingest each result, then finish,
// checkpoint and encode the canonical aggregate, which it returns.
func (rp *replayer) campaign(ctx context.Context, r *campaignRun) ([]byte, error) {
	rec := rp.rec
	cs := rec.begin(rp.root, "replay.campaign")
	sp := rec.begin(cs, "campaign.validate")
	var spec campaign.Spec
	dec := json.NewDecoder(bytes.NewReader(r.Body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		err = spec.Validate()
	}
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(cs, "jobstore.create")
	jn, err := rp.store.Create(r.ID, spec)
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	agg := campaign.NewAggregator(spec)
	ingest := rp.wh.Ingester(r.ID)
	emit := campaign.SinkFunc(func(res campaign.CellResult) {
		sp := rec.begin(cs, "campaign.fold")
		agg.Add(res)
		rec.end(sp, 1)
		sp = rec.begin(cs, "jobstore.append")
		jn.Emit(res)
		rec.end(sp, 1)
		sp = rec.begin(cs, "warehouse.ingest")
		ingest.Emit(res)
		rec.end(sp, 1)
	})
	norm := spec.Normalized()
	if rp.coord != nil {
		sp = rec.begin(cs, "cluster.dispatch")
		rp.parents.Store(r.ID, sp)
		rp.caches.Store(r.ID, &faultCache{})
		_, err = rp.coord.Dispatch(ctx, r.ID, norm, nil, nil, nil, emit)
		rec.end(sp, r.Cells)
	} else {
		err = rp.local(ctx, norm, cs, emit)
	}
	if err != nil {
		return nil, err
	}
	if err := jn.Err(); err != nil {
		return nil, err
	}
	sp = rec.begin(cs, "campaign.snapshot")
	a := agg.Snapshot()
	rec.end(sp, 1)
	sp = rec.begin(cs, "jobstore.finish")
	err = jn.Finish("done", "")
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(cs, "warehouse.index")
	err = rp.wh.IndexJob(r.ID, a.Cells)
	rec.end(sp, len(a.Cells))
	if err != nil {
		return nil, err
	}
	sp = rec.begin(cs, "warehouse.checkpoint")
	err = rp.wh.Checkpoint()
	rec.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(cs, "campaign.canonical")
	b, err := a.Canonical()
	rec.end(sp, 1)
	rec.end(cs, r.Cells)
	return b, err
}

// local simulates a campaign's cells on a GOMAXPROCS-sized pool and
// emits each result from this goroutine, as the engine's collector
// does.
func (rp *replayer) local(ctx context.Context, spec campaign.Spec, parent int, emit campaign.Sink) error {
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	fc := &faultCache{}
	work := make(chan campaign.Cell)
	results := make(chan campaign.CellResult)
	var wg sync.WaitGroup
	for i := 0; i < min(runtime.GOMAXPROCS(0), len(cells)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				results <- rp.sim.cell(ctx, spec, c, fc, parent)
			}
		}()
	}
	go func() {
		for _, c := range cells {
			work <- c
		}
		close(work)
		wg.Wait()
		close(results)
	}()
	for r := range results {
		emit.Emit(r)
	}
	return ctx.Err()
}

// startFleet serves an in-process coordinator on loopback and starts
// one two-slot worker against it, its HTTP transport timed by the
// benchmark. The replay polls fast (1 ms) so idle waits between
// replayed campaigns stay out of the layer figures.
func (rp *replayer) startFleet(ctx context.Context) (stop func()) {
	rp.coord = cluster.New(cluster.Options{IdleRetry: time.Millisecond})
	srv := httptest.NewServer(rp.coord)
	rp.wire = &wireTransport{base: http.DefaultTransport, rec: rp.rec, root: rp.root}
	wk := &cluster.Worker{
		Client:   &cluster.Client{Base: srv.URL, Worker: "replay", HTTPClient: &http.Client{Transport: rp.wire}},
		Parallel: 2,
		Poll:     time.Millisecond,
		Simulate: func(ctx context.Context, job string, spec campaign.Spec, cell campaign.Cell) campaign.CellResult {
			parent, _ := rp.parents.Load(job)
			fc, _ := rp.caches.Load(job)
			return rp.sim.cell(ctx, spec, cell, fc.(*faultCache), parent.(int))
		},
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(wctx)
	}()
	return func() {
		cancel()
		<-done
		srv.Close()
	}
}

// wireTransport times every /cluster call the worker makes and counts
// the body bytes on the wire. A lease call that granted a cell is a
// cluster.lease span; one answered idle is a cluster.poll span.
type wireTransport struct {
	base  http.RoundTripper
	rec   *recorder
	root  int
	bytes atomic.Int64 // request plus response bodies
}

func (t *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := path.Base(req.URL.Path)
	sp := t.rec.begin(t.root, "cluster."+op)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(sp, 0)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.rec.end(sp, 0)
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if op == "lease" && !bytes.Contains(body, []byte(`"status":"lease"`)) {
		t.rec.rename(sp, "cluster.poll")
	}
	t.rec.end(sp, 1)
	t.bytes.Add(max(req.ContentLength, 0) + int64(len(body)))
	return resp, nil
}

// fileSize is the size of path, 0 when absent.
func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// replayOrder sorts campaigns by job sequence, the order twmd created
// them.
func replayOrder(runs []*campaignRun) []*campaignRun {
	out := make([]*campaignRun, 0, len(runs))
	for _, r := range runs {
		if r.Err == nil {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := jobSeq(out[i].ID)
		b, _ := jobSeq(out[j].ID)
		return a < b
	})
	return out
}
