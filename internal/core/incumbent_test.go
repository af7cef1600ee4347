package core

import (
	"context"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// TestGreedyIncumbentWitness holds greedyIncumbent to being a witness:
// on ALLGATHER over seven fabrics in both epoch modes, and on every
// single-directed-link-down world of each that ValidateLive accepts, its
// sends must pass Schedule.Validate on the instance's topology, and no
// switch may be sent one commodity twice for the same landing epoch (the
// switch copies one landing onto every link, so a second is wasted hub
// bandwidth). The finish epochs of the unchurned worlds are pinned: they
// set the MILP horizon (finish + 1), so a greedy that finishes later
// makes every cold MILP on the fabric bigger. Dropping either of the
// greedy's rules — a destination stops missing a commodity once a send
// delivering it is planned; a switch gets a commodity once per landing
// epoch — moves a pin or trips the switch check.
func TestGreedyIncumbentWitness(t *testing.T) {
	cases := []struct {
		name   string
		topo   *topo.Topology
		finish [2]int // FastestLink, SlowestLink
	}{
		{"dgx1", topo.DGX1(), [2]int{7, 3}},
		{"ndv2mini2", topo.NDv2Mini(2), [2]int{28, 9}},
		{"dgx2mini2", topo.DGX2Mini(2), [2]int{58, 12}},
		{"internal1x2", topo.Internal1(2), [2]int{11, 6}},
		{"internal1x4", topo.Internal1(4), [2]int{27, 14}},
		{"internal2x2", topo.Internal2(2), [2]int{7, 4}},
		{"ring4", topo.Ring(4, 25e9, 0.7e-6), [2]int{3, 3}},
	}
	for _, c := range cases {
		d := collective.AllGather(c.topo.NumNodes(), testGPUs(c.topo), 1, 25e3)
		for mi, mode := range []EpochMode{FastestLink, SlowestLink} {
			t.Run(c.name+"/"+[]string{"fastest", "slowest"}[mi], func(t *testing.T) {
				if got := greedyWitness(t, c.topo, d, mode); got != c.finish[mi] {
					t.Errorf("greedy finishes at epoch %d, pinned %d", got, c.finish[mi])
				}
				for l := 0; l < c.topo.NumLinks(); l++ {
					down, err := c.topo.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{topo.LinkID(l)}})
					if err != nil || down.ValidateLive() != nil {
						continue
					}
					greedyWitness(t, down, d, mode)
				}
			})
		}
	}
}

// greedyWitness runs greedyIncumbent on one world at the auto-estimated
// horizon, checks its sends (see TestGreedyIncumbentWitness) and returns
// their finish epoch, or -1 when the greedy found no schedule.
func greedyWitness(t *testing.T, tp *topo.Topology, d *collective.Demand, mode EpochMode) int {
	t.Helper()
	in := must(newInstance(tp, d, Options{EpochMode: mode}))
	sends := greedyIncumbent(in)
	if sends == nil {
		t.Errorf("%s: greedy found no schedule within K=%d", tp.Name, in.K)
		return -1
	}
	sch := &schedule.Schedule{
		Topo: tp, Demand: d, Tau: in.tau, NumEpochs: in.K,
		Sends: sends, AllowCopy: true, EpochsPerChunk: in.epochsPerChunk(),
	}
	if err := sch.Validate(); err != nil {
		t.Errorf("%s: greedy schedule invalid: %v", tp.Name, err)
	}
	type landing struct{ sw, epoch, src, chunk int }
	seen := map[landing]bool{}
	for _, snd := range sends {
		lk := tp.Link(snd.Link)
		if !tp.IsSwitch(lk.Dst) {
			continue
		}
		key := landing{int(lk.Dst), sch.ArrivalEpoch(snd), snd.Src, snd.Chunk}
		if seen[key] {
			t.Errorf("%s: switch %d is sent chunk (%d,%d) twice for epoch %d", tp.Name, key.sw, key.src, key.chunk, key.epoch)
		}
		seen[key] = true
	}
	return sch.FinishEpoch()
}

// TestMILPFinishHorizonIndependent: at gap 0 a MILP's finish epoch is a
// property of the request, not of the horizon it was solved in, so it is
// the same for every K from the greedy witness's finish + 1 (the horizon
// solveMILP tightens an auto-estimated K to) up to the EstimateEpochs
// horizon. A witness that finishes too early would cut optima off; this
// holds the tightened horizon to the estimated one.
//
// The simulated completion time is not K-invariant, whatever horizon the
// greedy sets: which of several equal-objective optima the search
// returns depends on the model. On the zero-α 2-chunk case sim.Run reads
// 320, 280, 320, 280, … µs for Epochs 5, 6, 7, 8, …, all at finish
// epoch 3, so only FinishEpoch is compared.
func TestMILPFinishHorizonIndependent(t *testing.T) {
	zero := topo.ZeroAlpha(topo.Internal2(2))
	ring := topo.Ring(4, 25e9, 0.7e-6)
	cases := []struct {
		name string
		topo *topo.Topology
		d    *collective.Demand
	}{
		{"internal2x2-a0-1chunk", zero, collective.AllGather(zero.NumNodes(), testGPUs(zero), 1, 1e6)},
		{"internal2x2-a0-2chunk", zero, collective.AllGather(zero.NumNodes(), testGPUs(zero), 2, 1e6)},
		{"ring4", ring, collective.AllGather(ring.NumNodes(), testGPUs(ring), 1, 25e3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{EpochMode: SlowestLink}
			in := must(newInstance(c.topo, c.d, opt))
			greedy := greedyIncumbent(in)
			if greedy == nil {
				t.Fatalf("greedy found no schedule within K=%d", in.K)
			}
			want := -1
			for K := sendsFinishEpoch(in, greedy) + 1; K <= in.K; K++ {
				opt.Epochs = K
				res, err := SolveMILP(context.Background(), c.topo, c.d, opt)
				if err != nil {
					t.Fatalf("K=%d: %v", K, err)
				}
				if !res.Optimal || res.Gap != 0 {
					t.Fatalf("K=%d: not solved to gap 0 (gap %g)", K, res.Gap)
				}
				got := res.Schedule.FinishEpoch()
				if want < 0 {
					want = got
				} else if got != want {
					t.Errorf("K=%d: finish epoch %d, %d at the witness horizon", K, got, want)
				}
			}
		})
	}
}
