package jobstore

// Journal metrics on the process-default obs registry: the durability
// layer's health — append volume, append failures (a full disk shows
// up here long before recovery does), recovery replays, and torn-tail
// repairs.

import "twmarch/internal/obs"

var (
	metWALAppends = obs.NewCounter("twm_jobstore_wal_appends_total",
		"cell results appended to job WALs").With()
	metAppendErrors = obs.NewCounter("twm_jobstore_append_errors_total",
		"failed WAL appends (first failure per journal sticks)").With()
	metRecoveredJobs = obs.NewCounter("twm_jobstore_recovered_jobs_total",
		"journaled jobs replayed by Recover after a restart").With()
	metRecoveredCells = obs.NewCounter("twm_jobstore_recovered_cells_total",
		"cell results replayed from WALs by Recover").With()
	metTornRepairs = obs.NewCounter("twm_jobstore_torn_tail_repairs_total",
		"torn WAL tails truncated away on journal reopen").With()
)
