package core

// context.go centralizes how the solvers treat wall-clock budgets and
// cancellation. Every solver entry point derives one context per request:
// the caller's context (cancellation, caller deadlines) with
// Options.TimeLimit layered on as a deadline whose *cause* is the
// sentinel errTimeLimit. All four solvers — the LP simplex loops (the
// rolling-horizon windows run them too), the branch-and-bound node
// loop, and the A* round loop — watch only that context, which is what
// makes TimeLimit behave identically across them.
//
// The cause distinguishes the two ways a solve can be stopped:
//
//   - The TimeLimit budget expired (cause == errTimeLimit): the solvers
//     keep their historical budget semantics — the MILP returns its
//     incumbent as a feasible result, the LP and A* report a budget
//     error suggesting a larger TimeLimit — and no context error is
//     surfaced.
//   - The caller cancelled (or the caller's own deadline passed): the
//     solve returns an error wrapping context.Cause, so
//     errors.Is(err, context.Canceled) (or context.DeadlineExceeded)
//     holds, alongside whatever partial result was in hand.

import (
	"context"
	"errors"
	"time"
)

// errTimeLimit is the cancellation cause of deadlines derived from
// Options.TimeLimit, distinguishing an expired solver budget from a
// caller's cancellation.
var errTimeLimit = errors.New("core: solver time limit reached")

// withTimeLimit layers Options.TimeLimit onto ctx as a deadline whose
// cause is errTimeLimit. A nil ctx is promoted to context.Background();
// a zero limit leaves the context as is. The returned cancel func must
// be called to release the timer.
func withTimeLimit(ctx context.Context, limit time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if limit <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadlineCause(ctx, time.Now().Add(limit), errTimeLimit)
}

// interrupted returns the caller-facing cancellation cause when ctx was
// cancelled by the caller (context.Canceled, or the caller's own
// deadline), and nil while the context is live or when only the
// TimeLimit-derived deadline expired.
func interrupted(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	if cause := context.Cause(ctx); !errors.Is(cause, errTimeLimit) {
		return cause
	}
	return nil
}

// budgetExpired reports whether ctx is done for any reason — caller
// cancellation or the TimeLimit budget.
func budgetExpired(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}
