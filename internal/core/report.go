package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// StopReason says why a search stopped. The anytime stop reasons
// (deadline, cancellation, budget) still come with a usable best-so-far
// configuration in Result.Best — only a failure before the initial
// configuration is costed surfaces as an error.
type StopReason int

const (
	// StopConverged: no candidate improved the best configuration.
	StopConverged StopReason = iota
	// StopThreshold: an iteration's relative improvement fell below
	// Options.Threshold.
	StopThreshold
	// StopMaxIterations: Options.MaxIterations bounded the loop.
	StopMaxIterations
	// StopMaxLevels: BeamOptions.MaxLevels bounded the beam expansion.
	StopMaxLevels
	// StopDeadline: Options.Deadline (or the context's own deadline)
	// expired; Result.Best is the best configuration found in time.
	StopDeadline
	// StopCancelled: the search's context was cancelled mid-search.
	StopCancelled
	// StopBudget: Options.Budget capped the candidate evaluations.
	StopBudget
)

func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopThreshold:
		return "threshold"
	case StopMaxIterations:
		return "max-iterations"
	case StopMaxLevels:
		return "max-levels"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	case StopBudget:
		return "budget"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Interrupted reports whether the search stopped before exhausting its
// move space (deadline, cancellation or evaluation budget) — i.e.
// whether a longer run could have found a cheaper configuration.
func (r StopReason) Interrupted() bool {
	return r == StopDeadline || r == StopCancelled || r == StopBudget
}

// CandidateError records one candidate evaluation that failed (error)
// or panicked; the search skipped the candidate and carried on.
type CandidateError struct {
	// Transformation is the candidate move, rendered (or a beam-level
	// label when the originating move is no longer known).
	Transformation string
	// Stage names the pipeline stage that failed: "apply", "annotate",
	// "evaluate" or "materialize".
	Stage string
	// Err is the error text, or the recovered value for panics.
	Err string
	// Panic marks failures recovered from a worker panic.
	Panic bool
	// Stack is the goroutine stack at recovery time (panics only).
	Stack string
}

func (c CandidateError) String() string {
	kind := "error"
	if c.Panic {
		kind = "panic"
	}
	return fmt.Sprintf("%s in %s(%s): %s", kind, c.Stage, c.Transformation, c.Err)
}

// reportMaxErrors caps the CandidateErrors kept verbatim in a report;
// Failed keeps the total count either way.
const reportMaxErrors = 32

// SearchReport describes how a search ran and why it stopped. It is
// always present on a successful Result, including anytime stops.
type SearchReport struct {
	// Stop is why the search ended.
	Stop StopReason
	// Iterations is the number of completed greedy iterations (or beam
	// levels) that improved the configuration — len(Result.Trace).
	Iterations int
	// Evaluated counts candidate costings attempted (cache hits
	// included); Options.Budget bounds this number.
	Evaluated int64
	// Skipped counts candidates that were generated but never costed
	// because the deadline, cancellation or evaluation budget hit first.
	Skipped int64
	// Failed counts candidates abandoned by an error or recovered panic;
	// the first reportMaxErrors of them are in Errors.
	Failed int64
	// Errors details the failed candidates, in arrival order (capped).
	Errors []CandidateError
	// MemoFallbacks counts incremental evaluations that detected an
	// inconsistent memo state and gracefully re-ran the full pipeline.
	MemoFallbacks uint64
	// BlocksRequested and BlocksCosted mirror Result: SPJ block costings
	// asked of the logical-plan layer versus actually run — the gap is
	// the sharing the plan layer delivered during this search.
	BlocksRequested uint64
	BlocksCosted    uint64
	// Cache mirrors Result.Cache: the cost-cache activity this search
	// observed (hits, misses, singleflight dedups, evictions — the delta
	// when the cache is shared with sibling searches or, through a
	// CacheRegistry, with other engines).
	Cache CacheStats
	// Elapsed is the search's wall-clock time.
	Elapsed time.Duration
}

// searchState carries one search's interruption machinery and failure
// log across the candidate-evaluation worker pool.
type searchState struct {
	ctx       context.Context
	budget    int64 // max candidate costings; 0 = unbounded
	evaluated atomic.Int64
	skipped   atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []CandidateError
}

func newSearchState(ctx context.Context, budget int) *searchState {
	return &searchState{ctx: ctx, budget: int64(budget)}
}

// take claims one evaluation slot. It returns false — counting the
// candidate as skipped — once the context is done or the evaluation
// budget is spent.
func (st *searchState) take() bool {
	if st.ctx.Err() != nil {
		st.skipped.Add(1)
		return false
	}
	if st.budget > 0 && st.evaluated.Add(1) > st.budget {
		st.evaluated.Add(-1)
		st.skipped.Add(1)
		return false
	}
	if st.budget <= 0 {
		st.evaluated.Add(1)
	}
	return true
}

// exhausted reports whether the evaluation budget is spent.
func (st *searchState) exhausted() bool {
	return st.budget > 0 && st.evaluated.Load() >= st.budget
}

// record logs one failed candidate.
func (st *searchState) record(e CandidateError) {
	st.failed.Add(1)
	st.mu.Lock()
	if len(st.errs) < reportMaxErrors {
		st.errs = append(st.errs, e)
	}
	st.mu.Unlock()
}

func (st *searchState) recordError(transformation, stage string, err error) {
	st.record(CandidateError{Transformation: transformation, Stage: stage, Err: err.Error()})
}

func (st *searchState) recordPanic(transformation, stage string, recovered any, stack []byte) {
	st.record(CandidateError{
		Transformation: transformation,
		Stage:          stage,
		Err:            fmt.Sprint(recovered),
		Panic:          true,
		Stack:          string(stack),
	})
}

// stopFor maps a context error to its stop reason. A deadline set by
// Options.Deadline and one inherited from the caller's context both
// report StopDeadline.
func (st *searchState) stopFor(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// report assembles the SearchReport for a finished search.
func (st *searchState) report(stop StopReason, iterations int, eval *Evaluator, elapsed time.Duration) SearchReport {
	st.mu.Lock()
	errs := append([]CandidateError(nil), st.errs...)
	st.mu.Unlock()
	req, costed := eval.BlockStats()
	return SearchReport{
		Stop:            stop,
		Iterations:      iterations,
		Evaluated:       st.evaluated.Load(),
		Skipped:         st.skipped.Load(),
		Failed:          st.failed.Load(),
		Errors:          errs,
		MemoFallbacks:   eval.MemoFallbacks(),
		BlocksRequested: req,
		BlocksCosted:    costed,
		Elapsed:         elapsed,
	}
}
