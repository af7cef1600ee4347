package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// randomValidSchedule floods chunks greedily over a random ring-plus-
// chords topology, yielding a valid whole-chunk schedule with deliberate
// over-sending (the raw pre-pruning state the MILP also produces).
func randomValidSchedule(rng *rand.Rand) *Schedule {
	return floodSchedule(rng, 3+rng.Intn(4))
}

// floodSchedule is randomValidSchedule's flood on an n-node ring.
func floodSchedule(rng *rand.Rand, n int) *Schedule {
	t := topo.Ring(n, 1e9, 0)
	gpus := make([]int, n)
	for i := range gpus {
		gpus[i] = i
	}
	d := collective.AllGather(n, gpus, 1, 1e6)

	const K = 12
	holds := make([]map[int]bool, n)
	for i := range holds {
		holds[i] = map[int]bool{i: true}
	}
	pending := map[int][]([2]int){} // epoch -> (node, src)
	var sends []Send
	for k := 0; k < K; k++ {
		for _, a := range pending[k] {
			holds[a[0]][a[1]] = true
		}
		delete(pending, k)
		for l := 0; l < t.NumLinks(); l++ {
			lk := t.Link(topo.LinkID(l))
			src, dst := int(lk.Src), int(lk.Dst)
			// Pick a random held chunk the receiver misses.
			var cands []int
			for c := range holds[src] {
				if !holds[dst][c] && !willHave(pending, dst, c) {
					cands = append(cands, c)
				}
			}
			if len(cands) == 0 {
				continue
			}
			// Random skips create wasteful-looking variety.
			if rng.Intn(4) == 0 {
				continue
			}
			c := cands[rng.Intn(len(cands))]
			sends = append(sends, Send{Src: c, Chunk: 0, Link: topo.LinkID(l), Epoch: k, Fraction: 1})
			pending[k+1] = append(pending[k+1], [2]int{dst, c})
		}
	}
	return &Schedule{Topo: t, Demand: d, Tau: 1e-3, NumEpochs: K, Sends: sends, AllowCopy: true}
}

func willHave(pending map[int][]([2]int), node, c int) bool {
	for _, arr := range pending {
		for _, a := range arr {
			if a[0] == node && a[1] == c {
				return true
			}
		}
	}
	return false
}

// TestQuickPrunePreservesValidity: pruning any valid, demand-satisfying
// schedule keeps it valid and satisfying, and never adds sends.
func TestQuickPrunePreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomValidSchedule(rng)
		if err := s.Validate(); err != nil {
			// The greedy may not satisfy all demands within K; skip those.
			return true
		}
		p := s.Prune()
		if len(p.Sends) > len(s.Sends) {
			t.Logf("seed %d: prune grew the schedule", seed)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("seed %d: pruned schedule invalid: %v", seed, err)
			return false
		}
		// Pruning must not hurt the finish epoch.
		if p.FinishEpoch() > s.FinishEpoch() {
			t.Logf("seed %d: prune worsened finish %d -> %d", seed, s.FinishEpoch(), p.FinishEpoch())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// splitSchedule is a fractional schedule: the union of two independent
// floods over one n-node ring, the first carrying f of every chunk and
// the second the rest, so a chunk's fractions land at different epochs.
func splitSchedule(rng *rand.Rand) *Schedule {
	n := 3 + rng.Intn(4)
	a, b := floodSchedule(rng, n), floodSchedule(rng, n)
	f := []float64{0.25, 0.5, 0.7}[rng.Intn(3)]
	for i := range a.Sends {
		a.Sends[i].Fraction = f
	}
	for _, snd := range b.Sends {
		snd.Fraction = 1 - f
		a.Sends = append(a.Sends, snd)
	}
	return a
}

// arrivedBy keeps the sends of s that have landed by the end of epoch e.
// Every send a kept send relays from landed earlier, so what is kept is
// causal on its own, and it satisfies the demand exactly when every
// wanted chunk has landed by e.
func arrivedBy(s *Schedule, e int) *Schedule {
	out := *s
	out.Sends = nil
	for _, snd := range s.Sends {
		if s.ArrivalEpoch(snd) <= e {
			out.Sends = append(out.Sends, snd)
		}
	}
	return &out
}

// TestQuickFinishEpochConsistency: FinishEpoch is the first epoch by
// whose end the sends landed so far satisfy the demand — Validate
// accepts the schedule cut at FinishEpoch and rejects it cut one epoch
// earlier — for whole-chunk floods and for fractional unions of two
// floods, where the last fraction of a chunk, not the first, completes
// it. A whole-chunk schedule, pruned, starts no send after its finish.
func TestQuickFinishEpochConsistency(t *testing.T) {
	fractional := 0
	lands := func(seed int64, s *Schedule) bool {
		fe := s.FinishEpoch()
		if fe < 0 {
			t.Logf("seed %d: a valid schedule reports no finish", seed)
			return false
		}
		if err := arrivedBy(s, fe).Validate(); err != nil {
			t.Logf("seed %d: cut at its finish epoch %d: %v", seed, fe, err)
			return false
		}
		if fe > 0 && arrivedBy(s, fe-1).Validate() == nil {
			t.Logf("seed %d: already complete at epoch %d, finish reads %d", seed, fe-1, fe)
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomValidSchedule(rng)
		if s.Validate() == nil {
			if !lands(seed, s) {
				return false
			}
			p := s.Prune()
			for _, ps := range p.Sends {
				if ps.Epoch > p.FinishEpoch() {
					t.Logf("seed %d: pruned send after finish", seed)
					return false
				}
			}
		}
		if split := splitSchedule(rng); split.Validate() == nil {
			fractional++
			return lands(seed, split)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if fractional < 20 {
		t.Fatalf("only %d of 60 fractional schedules validated", fractional)
	}
}
