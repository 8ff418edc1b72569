package service

import (
	"time"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// Wire types of the HTTP/JSON API. Every response body is one of the
// structs below or ErrorResponse; instances and solutions reuse the
// canonical core JSON encodings, so anything cmd/treegen emits can be
// posted verbatim.

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Solver is a registry name (see GET /v1/solvers).
	Solver string `json:"solver"`
	// Instance is the problem instance in the core wire format.
	Instance *core.Instance `json:"instance"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Solver string `json:"solver"`
	Policy string `json:"policy"`
	// Hash is the canonical instance hash (the cache key, minus the
	// solver name).
	Hash     string `json:"hash"`
	Replicas int    `json:"replicas"`
	// LowerBound is core.LowerBound of the instance; Gap is
	// (Replicas − LowerBound) / LowerBound, 0 when the bound is met.
	LowerBound int     `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	// Verified is always true in a 200 response: solutions are checked
	// for feasibility before they are returned or cached.
	Verified bool `json:"verified"`
	// Cached reports whether the solution came from the result cache.
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Solution  *core.Solution `json:"solution"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Tasks []BatchTask `json:"tasks"`
	// Workers bounds the job's solver pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds each task (0 = no per-task timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchTask is one (solver, instance) pair of a batch job.
type BatchTask struct {
	// ID is an optional caller label echoed in the task's result.
	ID       string         `json:"id,omitempty"`
	Solver   string         `json:"solver"`
	Instance *core.Instance `json:"instance"`
}

// BatchAccepted is the 202 body of POST /v1/batch.
type BatchAccepted struct {
	JobID string `json:"job_id"`
	// StatusURL is the polling endpoint for the job.
	StatusURL string `json:"status_url"`
	Tasks     int    `json:"tasks"`
}

// Job statuses, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// JobResponse is the body of GET /v1/jobs/{id}.
type JobResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	// Results and Stats are present once Status is "done".
	Results []TaskResult `json:"results,omitempty"`
	Stats   *JobStats    `json:"stats,omitempty"`
}

// TaskResult is the outcome of one batch task.
type TaskResult struct {
	ID       string         `json:"id,omitempty"`
	Solver   string         `json:"solver"`
	OK       bool           `json:"ok"`
	Error    string         `json:"error,omitempty"`
	Replicas int            `json:"replicas,omitempty"`
	Cached   bool           `json:"cached,omitempty"`
	Solution *core.Solution `json:"solution,omitempty"`
}

// JobStats summarises a finished job (mirrors solver.Stats).
type JobStats struct {
	Tasks    int     `json:"tasks"`
	Solved   int     `json:"solved"`
	Failed   int     `json:"failed"`
	Skipped  int     `json:"skipped"`
	Replicas int     `json:"replicas"`
	WallMS   float64 `json:"wall_ms"`
	WorkMS   float64 `json:"work_ms"`
}

// SolverInfo describes one registered solver in GET /v1/solvers.
type SolverInfo struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`
	Exact  bool   `json:"exact"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

func jobStats(st solver.Stats) *JobStats {
	return &JobStats{
		Tasks:    st.Tasks,
		Solved:   st.Solved,
		Failed:   st.Failed,
		Skipped:  st.Skipped,
		Replicas: st.Replicas,
		WallMS:   durMS(st.Elapsed),
		WorkMS:   durMS(st.Work),
	}
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
