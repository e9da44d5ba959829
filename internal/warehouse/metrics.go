package warehouse

import "twmarch/internal/obs"

// Warehouse metrics, registered against the process-default registry
// so cmd/twmd's /metrics surface exports them without extra wiring.
// The pager counters make the page-cache hit rate observable
// (hits / (hits + misses)); the rest account for the index's write,
// read, and repair paths.
var (
	metPagerHits = obs.NewCounter("twm_warehouse_pager_hits_total",
		"warehouse page reads served from the LRU page cache").With()
	metPagerMisses = obs.NewCounter("twm_warehouse_pager_misses_total",
		"warehouse page reads that went to disk").With()
	metPagerEvictions = obs.NewCounter("twm_warehouse_pager_evictions_total",
		"warehouse pages evicted from the cache (dirty evictions write back first)").With()
	metInserts = obs.NewCounter("twm_warehouse_inserts_total",
		"cell records inserted into the warehouse index").With()
	metDeletes = obs.NewCounter("twm_warehouse_deletes_total",
		"cell records deleted from the warehouse index").With()
	metQueries = obs.NewCounter("twm_warehouse_queries_total",
		"warehouse range/point queries served").With()
	metQueryResults = obs.NewCounter("twm_warehouse_query_results_total",
		"cell records returned by warehouse queries").With()
	metCheckpoints = obs.NewCounter("twm_warehouse_checkpoints_total",
		"warehouse checkpoints (dirty pages flushed, clean marker written)").With()
	metRebuilds = obs.NewCounter("twm_warehouse_rebuilds_total",
		"full index rebuilds from the jobstore WALs").With()
	metReconcileRemoved = obs.NewCounter("twm_warehouse_reconcile_removed_total",
		"indexed jobs dropped by startup reconciliation (absent or non-terminal in the jobstore)").With()
	metReconcileRepaired = obs.NewCounter("twm_warehouse_reconcile_repaired_total",
		"indexed jobs re-indexed by startup reconciliation (cell count drifted from the WAL)").With()
	metIngestErrors = obs.NewCounter("twm_warehouse_ingest_errors_total",
		"cell results the ingest sink failed to index").With()
	metPages = obs.NewGauge("twm_warehouse_pages",
		"pages allocated in the warehouse index file").With()
	metJobs = obs.NewGauge("twm_warehouse_jobs",
		"distinct jobs currently indexed in the warehouse").With()
)
