package taskgroup

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"thermplace/internal/fault"
)

// TestRunTasksErrorSelection pins the error contract of the sweep's worker
// group: the lowest-index error among the tasks that ran is returned.
func TestRunTasksErrorSelection(t *testing.T) {
	sentinel := errors.New("task 2 failed")
	for _, workers := range []int{1, 3, 16} {
		tasks := make([]func(context.Context) error, 6)
		for i := range tasks {
			i := i
			tasks[i] = func(context.Context) error {
				if i == 2 {
					return sentinel
				}
				return nil
			}
		}
		if err := Run(context.Background(), tasks, workers); !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want the single failing task's error", workers, err)
		}
	}

	// With several failing tasks, Workers=1 deterministically surfaces the
	// first; concurrent runs may skip later tasks after the first failure
	// but must still return one of the injected errors.
	e1, e3 := errors.New("t1"), errors.New("t3")
	mkTasks := func() []func(context.Context) error {
		tasks := make([]func(context.Context) error, 5)
		for i := range tasks {
			i := i
			tasks[i] = func(context.Context) error {
				switch i {
				case 1:
					return e1
				case 3:
					return e3
				}
				return nil
			}
		}
		return tasks
	}
	if err := Run(context.Background(), mkTasks(), 1); !errors.Is(err, e1) {
		t.Fatalf("sequential run must return the first error, got %v", err)
	}
	if err := Run(context.Background(), mkTasks(), 4); !errors.Is(err, e1) && !errors.Is(err, e3) {
		t.Fatalf("concurrent run returned an unexpected error: %v", err)
	}
}

// TestRunTasksWorkerClamping checks that worker counts beyond the task
// count (and non-positive counts) still run every task exactly once.
func TestRunTasksWorkerClamping(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 64} {
		var ran atomic.Int32
		tasks := make([]func(context.Context) error, 3)
		for i := range tasks {
			tasks[i] = func(context.Context) error { ran.Add(1); return nil }
		}
		if err := Run(context.Background(), tasks, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := ran.Load(); got != 3 {
			t.Fatalf("workers=%d: ran %d of 3 tasks", workers, got)
		}
	}
}

// TestRunTasksCancelsSiblings is the regression for the abort contract: once
// a task fails, an in-flight sibling must be canceled through its context —
// not left to run to completion — and queued tasks must never start. The
// failing task's error must surface even though the canceled sibling ran at
// a lower index.
func TestRunTasksCancelsSiblings(t *testing.T) {
	sentinel := errors.New("task 1 failed")
	started := make(chan struct{})
	var slowCanceled atomic.Bool
	var ran [4]atomic.Bool
	tasks := []func(context.Context) error{
		// Task 0: a long task that only finishes early if the abort
		// cancellation reaches it.
		func(ctx context.Context) error {
			close(started)
			select {
			case <-ctx.Done():
				slowCanceled.Store(true)
				return fault.Canceled(ctx.Err())
			case <-time.After(10 * time.Second):
				return errors.New("sibling was never canceled")
			}
		},
		// Task 1 fails once task 0 is in flight.
		func(context.Context) error {
			<-started
			return sentinel
		},
		func(context.Context) error { ran[2].Store(true); return nil },
		func(context.Context) error { ran[3].Store(true); return nil },
	}
	start := time.Now()
	err := Run(context.Background(), tasks, 2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("abort returned %v, want the failing task's error (a canceled sibling must not mask it)", err)
	}
	if !slowCanceled.Load() {
		t.Fatal("in-flight sibling was not canceled on failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v: the sibling ran to completion instead of being canceled", elapsed)
	}
	if ran[2].Load() || ran[3].Load() {
		t.Fatal("queued tasks started after a recorded failure")
	}
}

// TestRunTasksExternalCancel asserts that canceling the caller's context
// aborts the group with a typed error on both the sequential and the
// concurrent path.
func TestRunTasksExternalCancel(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		tasks := make([]func(context.Context) error, 8)
		for i := range tasks {
			tasks[i] = func(tctx context.Context) error {
				if ran.Add(1) == 1 {
					cancel() // fire mid-run, from inside the first task
				}
				<-tctx.Done()
				return fault.Canceled(tctx.Err())
			}
		}
		err := Run(ctx, tasks, workers)
		cancel()
		if !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("workers=%d: external cancel returned %v, want fault.ErrCanceled", workers, err)
		}
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d tasks started after the cancel", workers, got)
		}
	}
}

// TestRunTasksPanicContained asserts that a panicking task surfaces as a
// located typed error instead of crashing the worker group.
func TestRunTasksPanicContained(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tasks := []func(context.Context) error{
			func(context.Context) error { return nil },
			func(context.Context) error { panic("task exploded") },
			func(context.Context) error { return nil },
		}
		err := Run(context.Background(), tasks, workers)
		var pe *fault.ErrPanic
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: task panic not contained: %v", workers, err)
		}
		if pe.Value != "task exploded" {
			t.Fatalf("workers=%d: panic value lost: %v", workers, pe.Value)
		}
	}
}

// TestRunTasksPanicDuringCancel asserts the error-preference contract when a
// sibling panics while the group's context is already canceled: the panic is
// a genuine failure and must surface as the located *fault.ErrPanic, never
// masked by the cancellation the other siblings are reporting.
func TestRunTasksPanicDuringCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	tasks := []func(context.Context) error{
		// Cancels the group once the sibling is in flight, so both tasks are
		// executing when the cancellation lands (a recorded failure would
		// otherwise skip the not-yet-started sibling).
		func(tctx context.Context) error {
			<-started
			cancel()
			<-tctx.Done()
			return fault.Canceled(tctx.Err())
		},
		// Panics only after the cancellation has fired.
		func(tctx context.Context) error {
			close(started)
			<-tctx.Done()
			panic("sibling exploded during cancellation")
		},
	}
	err := Run(ctx, tasks, 2)
	var pe *fault.ErrPanic
	if !errors.As(err, &pe) {
		t.Fatalf("panic during cancellation returned %v, want the contained *fault.ErrPanic", err)
	}
	if pe.Value != "sibling exploded during cancellation" {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
	if errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("panic error also matches ErrCanceled, so exit-code mapping would report 130 for a crash: %v", err)
	}

	// The sequential path, by contrast, never starts a task under an
	// already-canceled context: there is nothing to panic, and the typed
	// cancellation is the whole story.
	err = Run(ctx, []func(context.Context) error{
		func(context.Context) error { panic("must not run") },
	}, 1)
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("sequential path under a canceled context returned %v, want fault.ErrCanceled", err)
	}
}
