// Cluster: distributed campaign execution. A coordinator shards a
// campaign's cell grid across worker daemons over HTTP — the topology
// of twmd -cluster plus a twmw fleet, here in one process so the
// example is self-contained. Three workers lease cells, simulate them
// locally, and report results; a fourth "worker" takes a lease and
// dies without completing it, so its cell's lease expires and the
// cell requeues to the healthy fleet.
//
// The punchline is the determinism contract surviving distribution:
// every cell carries a deterministically derived seed and the fold is
// commutative and dup-safe, so the aggregate assembled from whatever
// interleaving, placement, and retry history the run happens to take
// is byte-identical to a single-process engine run of the same spec.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
)

func main() {
	spec := campaign.Spec{
		Name:    "cluster",
		Tests:   []string{"March C-", "March U"},
		Widths:  []int{4, 8},
		Words:   []int{4, 8},
		Classes: []string{"SAF", "TF"},
		Seed:    42,
	}
	ctx := context.Background()

	// The coordinator side: twmd -cluster embeds exactly this, mounted
	// on its API mux. Short lease TTL so the dead worker's cell
	// requeues quickly.
	coord := cluster.New(cluster.Options{
		LeaseTTL:     300 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
		IdleRetry:    5 * time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	fmt.Printf("coordinator serving /cluster on %s\n", ts.URL)

	// Dispatch the grid in the background — what a twmd job runner
	// does per submitted campaign, through the same fold loop as a
	// local run; it blocks until every cell is folded. The events hook
	// sees the lease lifecycle, which twmd records as cluster.lease
	// spans on the job's trace.
	var leases, expires, requeues atomic.Int64
	events := func(ev cluster.Event) {
		switch ev.Kind {
		case cluster.EventLease:
			leases.Add(1)
		case cluster.EventExpire:
			expires.Add(1)
			fmt.Printf("lease %s on cell %d expired (worker %s died)\n", ev.Lease, ev.Cell, ev.Worker)
		case cluster.EventRequeue:
			requeues.Add(1)
			fmt.Printf("cell %d requeued (attempt %d)\n", ev.Cell, ev.Attempt)
		}
	}
	var completed atomic.Int64
	sink := campaign.SinkFunc(func(r campaign.CellResult) { completed.Add(1) })
	prog := &campaign.Progress{}
	fmt.Println("\n— dispatching 16 cells across the fleet —")
	type dispatched struct {
		agg *campaign.Aggregate
		err error
	}
	done := make(chan dispatched, 1)
	go func() {
		agg, err := coord.Dispatch(ctx, "c1", spec, prog, nil, events, sink)
		done <- dispatched{agg, err}
	}()

	// A worker that dies mid-cell: it takes one lease and never renews
	// or completes, like a killed twmw process.
	deadbeat := &cluster.Client{Base: ts.URL, Worker: "deadbeat"}
	for {
		g, err := deadbeat.Lease(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if g.Status == cluster.StatusLease {
			fmt.Printf("worker deadbeat leased cell %d and died\n", g.Cell.Index)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The healthy fleet: three twmw-equivalent workers.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	for i := 1; i <= 3; i++ {
		w := &cluster.Worker{
			Client:   &cluster.Client{Base: ts.URL, Worker: fmt.Sprintf("twmw-%d", i)},
			Parallel: 2,
			Poll:     2 * time.Millisecond,
		}
		go w.Run(wctx)
	}

	d := <-done
	if d.err != nil {
		log.Fatal(d.err)
	}
	distributed := d.agg
	fmt.Printf("done: %d cells completed by workers, %d leases granted, %d expired, %d requeued\n",
		completed.Load(), leases.Load(), expires.Load(), requeues.Load())
	fmt.Printf("coverage %.2f%% at %.0f cells/s\n\n", 100*distributed.CoverageFraction(), prog.Rate())

	// The determinism contract across the process boundary: the
	// distributed aggregate is byte-identical to a local engine run.
	local, err := campaign.Engine{}.Run(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	db, err := distributed.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	lb, err := local.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canonical distributed == local engine run:  %v\n\n", bytes.Equal(db, lb))
	fmt.Print(distributed.Render())
}
