// Package taskgroup runs a fixed list of independent tasks on a bounded
// group of goroutines: the sweep's points (package core) and the two lanes
// of one analysis (package flow). With sparse.Pool it is one of the two
// goroutine primitives of the numeric core (see the bareGo analyzer): it
// owns the panic containment, sibling cancellation and deterministic error
// selection that a raw goroutine would lack.
package taskgroup

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"thermplace/internal/fault"
)

// Run executes the tasks on a bounded worker group. workers <= 0 picks
// GOMAXPROCS; workers == 1 runs the tasks inline in order.
//
// A failed task aborts the rest of the group: tasks that have not started
// yet are skipped, and the in-flight siblings are canceled through the
// derived context every task receives (each task checks it inside its
// thermal solve, so a long-running sibling aborts within milliseconds
// instead of running to completion). The lowest-index genuine error among
// the tasks that ran is returned; a sibling that merely reports the
// abort-cancellation never masks the failure that triggered it, even when it
// ran at a lower index. An external cancellation of ctx aborts the same way
// and surfaces as an error matching fault.ErrCanceled.
//
// A panic inside a task is contained as a located *fault.ErrPanic and
// treated exactly like any other task error — the caller gets an error, not
// a crash, and no worker goroutine is lost.
func Run(ctx context.Context, tasks []func(context.Context) error, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	tctx, tcancel := context.WithCancel(ctx)
	defer tcancel()
	if workers <= 1 {
		for i, t := range tasks {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("taskgroup: %w", fault.Canceled(cerr))
			}
			if err := runOne(tctx, i, t); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//repolint:allow bareGo(Run is itself the task-group concurrency primitive the rule points to)
		go func() {
			defer wg.Done()
			for idx := range next {
				if failed.Load() {
					continue
				}
				if err := runOne(tctx, idx, tasks[idx]); err != nil {
					errs[idx] = err
					failed.Store(true)
					tcancel() // abort the in-flight siblings
				}
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()

	// Prefer the lowest-index error that is not itself the
	// abort-cancellation: with workers > 1, a sibling at a lower index may
	// legitimately fail with ErrCanceled as a *consequence* of the real
	// failure, and returning it would hide the cause.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, fault.ErrCanceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller's context fired: every error above (if any) is the
		// cancellation itself.
		return fmt.Errorf("taskgroup: %w", fault.Canceled(cerr))
	}
	return canceled
}

// runOne runs one task, containing a panic as a located typed error so a
// crashing task cannot take down the worker group.
func runOne(ctx context.Context, idx int, task func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("taskgroup: task %d: %w", idx,
				fault.Recovered(fmt.Sprintf("taskgroup task %d", idx), v))
		}
	}()
	return task(ctx)
}
