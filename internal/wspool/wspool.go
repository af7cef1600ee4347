// Package wspool is the process-wide free list behind lp.Solve and
// milp.Solve: solve workspaces borrowed for one solve and handed back,
// which the garbage collector empties.
//
// It is not a sync.Pool. A sync.Pool keeps each P's (scheduler slot's)
// last Put in a private slot no other P can take from, so a planning
// goroutine the scheduler has moved to another P since its last solve —
// after a collection, a syscall, a preemption — finds nothing and builds
// a new workspace, so how often a planning call got a warm one, and with
// it how much a run of the same calls allocated, was decided by
// scheduling. A Pool is one last-in-first-out list for the whole
// process: Get returns the workspace put back last, whichever thread
// runs it.
//
// The collector still empties it as it does a sync.Pool, so a process
// that stops solving keeps no workspace: the list is reachable only
// through a weak pointer and through anchors held in a sync.Pool, which
// every Put renews, so the second collection after the last Put frees it.
package wspool

import (
	"sync"
	"weak"
)

// Pool is a free list of *T; the zero value is ready and safe for
// concurrent use.
type Pool[T any] struct {
	mu      sync.Mutex
	list    weak.Pointer[freeList[T]]
	anchors sync.Pool // *freeList[T]: keeps the list alive until the collector empties it
}

type freeList[T any] struct{ items []*T }

// Get returns the workspace put back last, or a new one when the list is
// empty or the collector has freed it.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	fl := p.list.Value()
	if fl == nil || len(fl.items) == 0 {
		return new(T)
	}
	n := len(fl.items) - 1
	x := fl.items[n]
	fl.items[n] = nil
	fl.items = fl.items[:n]
	return x
}

// Put hands x back. The caller puts back only a workspace that holds no
// caller memory and is in the state its package requires between solves.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	fl := p.list.Value()
	if fl == nil {
		fl = new(freeList[T])
		p.list = weak.Make(fl)
	}
	fl.items = append(fl.items, x)
	p.mu.Unlock()
	// Renew the anchor in the current collection cycle; taking one out
	// first keeps the sync.Pool from growing by one anchor per Put.
	p.anchors.Get()
	p.anchors.Put(fl)
}
