package sim

// check_fuzz_test.go holds the two schedule checkers to each other: the
// epoch-level schedule.Validate and the continuous-time Run. Valid LP and
// copy-MILP schedules of small rings, stars and lines are mutated — a
// send dropped, its epoch shifted, its fraction raised, moved onto another
// link or a down one, duplicated — and whatever Validate accepts, Run
// must execute. A dropped send that a destination depends on must be
// refused by both.

import (
	"context"
	"math"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// checkBases solves the fuzzer's starting schedules: an ALLTOALL LP
// (fractional, no copy) and an ALLGATHER MILP (whole chunks, copy) on
// rings, stars and lines of 3 to 5 nodes. Every one passes both checkers.
func checkBases(tb testing.TB) []*schedule.Schedule {
	tb.Helper()
	const capacity, alpha, chunkBytes = 25e9, 0.6e-6, 25e3
	var topos []*topo.Topology
	for n := 3; n <= 5; n++ {
		topos = append(topos, topo.Ring(n, capacity, alpha), topo.Line(n, capacity, alpha), topo.Star(n-1, capacity, alpha))
	}
	var out []*schedule.Schedule
	for _, tt := range topos {
		var gpus []int
		for _, g := range tt.GPUs() {
			gpus = append(gpus, int(g))
		}
		lp, err := core.SolveLP(context.Background(), tt, collective.AllToAll(tt.NumNodes(), gpus, 1, chunkBytes), core.Options{})
		if err != nil {
			tb.Fatalf("%s LP: %v", tt.Name, err)
		}
		milp, err := core.SolveMILP(context.Background(), tt, collective.AllGather(tt.NumNodes(), gpus, 1, chunkBytes), core.Options{})
		if err != nil {
			tb.Fatalf("%s MILP: %v", tt.Name, err)
		}
		for _, r := range []*core.Result{lp, milp} {
			if err := r.Schedule.Validate(); err != nil {
				tb.Fatalf("%s: solved schedule fails Validate: %v", tt.Name, err)
			}
			if _, err := Run(r.Schedule); err != nil {
				tb.Fatalf("%s: solved schedule fails Run: %v", tt.Name, err)
			}
			out = append(out, r.Schedule)
		}
	}
	return out
}

// Schedule mutations, selected by the fuzzer's op byte.
const (
	mutDrop = iota
	mutShift
	mutRaise
	mutMove
	mutMoveDown
	mutDuplicate
	numMutations
)

// deliveredAfterDrop reports whether dropping send i leaves a destination
// that wants its chunk, and that i delivers to directly, holding less
// than all of it (Validate's 1e-6 tolerance) from the remaining sends.
func deliveredAfterDrop(s *schedule.Schedule, i int) bool {
	snd := s.Sends[i]
	dst := int(s.Topo.Link(snd.Link).Dst)
	if !s.Demand.Wants(snd.Src, snd.Chunk, dst) {
		return false
	}
	var rest float64
	for j, o := range s.Sends {
		if j != i && o.Src == snd.Src && o.Chunk == snd.Chunk && int(s.Topo.Link(o.Link).Dst) == dst {
			rest += o.Fraction
		}
	}
	return rest < 1-1e-6
}

func FuzzScheduleCheck(f *testing.F) {
	bases := checkBases(f)
	for op := 0; op < numMutations; op++ {
		for base := 0; base < len(bases); base += 5 {
			f.Add(uint8(base), uint8(op), uint16(3*base+op), uint8(op+1), 0.25)
		}
	}
	// The first disagreement found: a send raised 1e-7 past what its node
	// holds is inside Validate's schedule.FracTol, and Run once required
	// 1e-9.
	f.Add(uint8(0), uint8(mutRaise), uint16(0), uint8(0), 1e-7)
	f.Add(uint8(1), uint8(mutShift), uint16(2), uint8(0xff), 0.0)
	f.Fuzz(func(t *testing.T, base, op uint8, which uint16, arg uint8, amount float64) {
		b := bases[int(base)%len(bases)]
		s := *b
		s.Sends = append([]schedule.Send(nil), b.Sends...)
		i := int(which) % len(s.Sends)
		nLinks := s.Topo.NumLinks()
		switch op % numMutations {
		case mutDrop:
			s.Sends = append(s.Sends[:i], s.Sends[i+1:]...)
		case mutShift:
			d := int(int8(arg))
			if d == 0 {
				d = 1
			}
			s.Sends[i].Epoch += d
		case mutRaise:
			if math.IsNaN(amount) || math.IsInf(amount, 0) || amount == 0 {
				return
			}
			s.Sends[i].Fraction += math.Abs(amount)
		case mutMove:
			s.Sends[i].Link = topo.LinkID(int(arg) % nLinks)
		case mutMoveDown:
			l := topo.LinkID(int(arg) % nLinks)
			down, err := s.Topo.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{l}})
			if err != nil {
				t.Fatal(err)
			}
			s.Topo = down
			s.Sends[i].Link = l
		case mutDuplicate:
			s.Sends = append(s.Sends, s.Sends[i])
		}
		verr := s.Validate()
		_, rerr := Run(&s)
		if verr == nil && rerr != nil {
			t.Fatalf("Validate accepts a schedule Run refuses: %v", rerr)
		}
		if op%numMutations == mutDrop && deliveredAfterDrop(b, i) && (verr == nil || rerr == nil) {
			t.Fatalf("dropping a send its destination depends on: Validate %v, Run %v; both must refuse", verr, rerr)
		}
	})
}
