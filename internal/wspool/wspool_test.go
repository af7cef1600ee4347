package wspool

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"weak"
)

type workspace struct{ buf []float64 }

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops Puts at random (and with them anchors).
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestGetReturnsLastPutOnAnyP: a workspace put back by one goroutine is
// what the next Get returns in another that runs at the same moment, so
// on another P — the Get a sync.Pool misses, since it keeps a P's last
// Put where no other P can take it.
func TestGetReturnsLastPutOnAnyP(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps running at once")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool[workspace]
	for i := 0; i < 64; i++ {
		x := p.Get()
		var running, put atomic.Bool
		got := make(chan *workspace)
		go func() {
			running.Store(true)
			for !put.Load() { // spin: stay on this P while the other one Puts
			}
			y := p.Get()
			p.Put(y)
			got <- y
		}()
		for !running.Load() {
		}
		p.Put(x)
		put.Store(true)
		if y := <-got; y != x {
			t.Fatalf("round %d: a goroutine on another P got a new workspace, not the one put back last", i)
		}
		p.Get()
	}
}

// TestPoolIsLastInFirstOut: Gets return workspaces in the reverse order
// of their Puts, then new ones.
func TestPoolIsLastInFirstOut(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool[workspace]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two Gets from an empty pool returned one workspace")
	}
	p.Put(a)
	p.Put(b)
	if p.Get() != b || p.Get() != a {
		t.Fatal("the pool does not hand back the last Put first")
	}
	if c := p.Get(); c == a || c == b {
		t.Fatal("an emptied pool handed back a borrowed workspace")
	}
}

// TestCollectorEmptiesPool: one collection after a Put leaves the
// workspace in the pool; the second frees it, so a process that stops
// solving keeps none, and the next Get makes a new one.
func TestCollectorEmptiesPool(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool[workspace]
	x := &workspace{buf: make([]float64, 1<<16)}
	p.Put(x)
	runtime.GC()
	if !raceEnabled() {
		if got := p.Get(); got != x {
			t.Fatal("one collection emptied the pool")
		}
		p.Put(x)
	}
	w := weak.Make(x)
	x = nil
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("two collections after the last Put left the workspace alive")
	}
	if p.Get() == nil {
		t.Fatal("Get on a freed pool returned nil")
	}
}

// TestGetPutAllocFree: borrowing and handing back a pooled workspace
// allocates nothing.
func TestGetPutAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool[workspace]
	p.Put(p.Get())
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); allocs != 0 {
		t.Fatalf("a Get and Put of a pooled workspace allocate %.0f times, want 0", allocs)
	}
}
