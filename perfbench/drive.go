package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"twmarch/internal/campaign"
)

// campaignRun is one closed-loop campaign as a client saw it.
type campaignRun struct {
	Client int
	Spec   campaign.Spec
	Body   []byte // the submitted spec, byte for byte
	ID     string
	Cells  int
	Faults int // fault injections in the completed aggregate
	// SubmitMS is the POST /campaigns latency; TotalMS runs from
	// sending the submit until the /results body is received.
	SubmitMS float64
	TotalMS  float64
	Events   int    // NDJSON lines on /events
	Result   []byte // the canonical /results body
	// QueueWaitMS is the job's elapsed_ns − run_elapsed_ns from its
	// status, fetched in traced runs only.
	QueueWaitMS float64
	Err         error
}

// queryRun is one GET /campaigns/query read.
type queryRun struct {
	Q    query
	MS   float64
	Body []byte
	Err  error
}

// driver runs the closed-loop clients against one twmd.
type driver struct {
	w      workload
	seed   int64
	base   string
	http   *http.Client
	status bool // fetch each job's status after its results

	mu        sync.Mutex
	campaigns []*campaignRun
	queries   []*queryRun
	newest    int // highest job sequence seen so far
}

// queriesPerCampaign is how many index reads an interactive client
// makes after each campaign.
const queriesPerCampaign = 2

// phase runs every client until the deadline, each finishing the
// campaign it has in flight, or until the client has run the
// workload's maximum campaigns, and returns the wall time.
func (d *driver) phase(ctx context.Context, seconds int) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && (d.w.maxCampaigns == 0 || n < d.w.maxCampaigns) && ctx.Err() == nil; n++ {
				d.campaign(ctx, c, d.w.spec(d.seed, c, n))
				if !d.w.queries {
					continue
				}
				for k := 0; k < queriesPerCampaign; k++ {
					d.mu.Lock()
					newest := d.newest
					d.mu.Unlock()
					d.query(ctx, querySpec(d.seed, c, n*queriesPerCampaign+k, newest))
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// campaign submits one spec, follows its events to the end, and
// fetches its results.
func (d *driver) campaign(ctx context.Context, client int, spec campaign.Spec) {
	r := &campaignRun{Client: client, Spec: spec, Body: specJSON(spec)}
	defer func() {
		d.mu.Lock()
		d.campaigns = append(d.campaigns, r)
		d.mu.Unlock()
	}()
	t0 := time.Now()
	code, body, err := d.do(ctx, http.MethodPost, "/campaigns", r.Body)
	r.SubmitMS = ms(time.Since(t0))
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(body))
	}
	if err != nil {
		r.Err = err
		return
	}
	var ack struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		r.Err = fmt.Errorf("submit response: %v", err)
		return
	}
	r.ID, r.Cells = ack.ID, ack.Cells
	if r.Events, err = d.events(ctx, r.ID); err != nil {
		r.Err = err
		return
	}
	code, body, err = d.do(ctx, http.MethodGet, "/campaigns/"+r.ID+"/results", nil)
	r.TotalMS = ms(time.Since(t0))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("results %s: %d %s", r.ID, code, bytes.TrimSpace(body))
	}
	if err != nil {
		r.Err = err
		return
	}
	r.Result = body
	if seq, ok := jobSeq(r.ID); ok {
		d.mu.Lock()
		d.newest = max(d.newest, seq)
		d.mu.Unlock()
	}
	if d.status {
		r.Err = d.queueWait(ctx, r)
	}
}

// events follows /campaigns/{id}/events until the stream ends and
// counts its lines.
func (d *driver) events(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/campaigns/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// queueWait reads the job's status and records its queue wait.
func (d *driver) queueWait(ctx context.Context, r *campaignRun) error {
	code, body, err := d.do(ctx, http.MethodGet, "/campaigns/"+r.ID, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %s: %d", r.ID, code)
	}
	if err != nil {
		return err
	}
	var st struct {
		ElapsedNS    int64 `json:"elapsed_ns"`
		RunElapsedNS int64 `json:"run_elapsed_ns"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("status %s: %v", r.ID, err)
	}
	r.QueueWaitMS = float64(st.ElapsedNS-st.RunElapsedNS) / 1e6
	return nil
}

// query runs one index read.
func (d *driver) query(ctx context.Context, q query) {
	r := &queryRun{Q: q}
	t0 := time.Now()
	code, body, err := d.do(ctx, http.MethodGet, "/campaigns/query?"+q.values().Encode(), nil)
	r.MS = ms(time.Since(t0))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("query: %d %s", code, bytes.TrimSpace(body))
	}
	r.Body, r.Err = body, err
	d.mu.Lock()
	d.queries = append(d.queries, r)
	d.mu.Unlock()
}

// values encodes the query as twmd's URL parameters.
func (q query) values() url.Values {
	v := url.Values{}
	v.Set("test", q.Test)
	v.Set("width", strconv.Itoa(q.Width))
	v.Set("limit", strconv.Itoa(q.Limit))
	if q.Words != 0 {
		v.Set("words", strconv.Itoa(q.Words))
	}
	if q.Scheme != "" {
		v.Set("scheme", q.Scheme)
	}
	if q.MinJob != 0 {
		v.Set("min_job", strconv.Itoa(q.MinJob))
	}
	return v
}

// do sends one request and reads the whole response.
func (d *driver) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobSeq parses a twmd job id ("c17").
func jobSeq(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'c' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
