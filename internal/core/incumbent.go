package core

import (
	"math"
	"slices"
	"sort"

	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// greedyIncumbent builds a feasible whole-chunk schedule by greedy
// epoch-by-epoch flooding: each epoch, each live link forwards the most
// useful chunk its source holds toward destinations that still miss it.
// A destination misses a commodity until a send that delivers it is
// planned, not until it lands, so no second copy chases a chunk already
// on its way. A switch forwards what lands on it in the epoch it lands,
// copying it onto every outgoing link, so it is sent a given commodity
// at most once per landing epoch: a second copy would spend the hub's
// bandwidth for nothing. The result warm-starts the branch-and-bound (it
// prunes everything worse) and sets the MILP horizon, playing the role
// of Gurobi's internal primal heuristics. Returns nil when the greedy
// cannot finish within the horizon.
func greedyIncumbent(in *instance) []schedule.Send {
	t := in.topo
	K := in.K
	nN := t.NumNodes()
	nC := len(in.comms)
	if nC == 0 {
		return nil
	}
	hop := in.hopDistances()

	// State.
	holds := make([][]bool, nN)           // GPU holds chunk (forwardable)
	hasOrWill := make([][]bool, nN)       // GPU holds chunk or a send to it is planned
	switchAt := make([]map[int][]int, nN) // switch: landing epoch -> commodity list
	for n := 0; n < nN; n++ {
		holds[n] = make([]bool, nC)
		hasOrWill[n] = make([]bool, nC)
		switchAt[n] = map[int][]int{}
	}
	missing := make([]int, nC) // destinations no planned send delivers to yet
	needs := make([][]bool, nN)
	for n := range needs {
		needs[n] = make([]bool, nC)
	}
	for ci, cm := range in.comms {
		holds[cm.src][ci] = true
		hasOrWill[cm.src][ci] = true
		missing[ci] = len(cm.dests)
		for _, d := range cm.dests {
			needs[d][ci] = true
		}
	}
	totalMissing := 0
	for _, m := range missing {
		totalMissing += m
	}

	type arrival struct {
		node, ci int
	}
	pending := map[int][]arrival{}

	// Per-link windowed budget tracking.
	nL := t.NumLinks()
	sentAt := make([][]float64, nL) // chunks sent per epoch
	for l := range sentAt {
		sentAt[l] = make([]float64, K)
	}
	budgetLeft := func(l, k int) float64 {
		kap := in.kappa[l]
		used := 0.0
		for kk := k - kap + 1; kk <= k; kk++ {
			if kk >= 0 {
				used += sentAt[l][kk]
			}
		}
		return in.capChunks[l]*float64(kap) - used
	}

	// Deterministic link order: by ID.
	var sends []schedule.Send
	for k := 0; k < K && totalMissing > 0; k++ {
		// GPU arrivals become forwardable at k.
		for _, a := range pending[k] {
			holds[a.node][a.ci] = true
		}
		delete(pending, k)

		for l := 0; l < nL; l++ {
			if t.LinkDown(topo.LinkID(l)) {
				continue
			}
			lk := t.Link(topo.LinkID(l))
			src, dst := int(lk.Src), int(lk.Dst)
			if k+in.delta[l]+in.kappa[l]-1 > K-1 {
				continue // arrival would miss the horizon
			}
			// Candidate commodities at this link source.
			var cands []int
			if t.IsSwitch(lk.Src) {
				cands = switchAt[src][k]
			} else {
				for ci := 0; ci < nC; ci++ {
					if holds[src][ci] {
						cands = append(cands, ci)
					}
				}
			}
			// Filter: receiver must miss the chunk and the transfer must
			// help some destination still missing it.
			type scored struct {
				ci    int
				score float64
			}
			var useful []scored
			for _, ci := range cands {
				if hasOrWill[dst][ci] && !t.IsSwitch(lk.Dst) {
					continue
				}
				if missing[ci] == 0 {
					continue
				}
				if int(lk.Dst) == in.comms[ci].src {
					continue
				}
				// Score: strongly prefer direct delivery; then prefer
				// moving closer to the nearest missing destination.
				best := math.Inf(1)
				direct := false
				for _, dd := range in.comms[ci].dests {
					if !needs[dd][ci] {
						continue
					}
					if dd == dst {
						direct = true
						best = 0
						break
					}
					if h := hop[dst][dd]; h < best {
						// Only useful if it gets closer.
						if h < hop[src][dd] {
							best = h
						}
					}
				}
				if !direct && math.IsInf(best, 1) {
					continue
				}
				useful = append(useful, scored{ci, best})
			}
			sort.Slice(useful, func(i, j int) bool {
				if useful[i].score != useful[j].score {
					return useful[i].score < useful[j].score
				}
				return useful[i].ci < useful[j].ci
			})
			for _, u := range useful {
				if budgetLeft(l, k) < 1-1e-9 {
					break
				}
				ci := u.ci
				fwd := k + in.delta[l] + in.kappa[l]
				if t.IsSwitch(lk.Dst) {
					if slices.Contains(switchAt[dst][fwd], ci) {
						continue // one landing already fans out to every link
					}
					switchAt[dst][fwd] = append(switchAt[dst][fwd], ci)
				} else {
					pending[fwd] = append(pending[fwd], arrival{dst, ci})
					hasOrWill[dst][ci] = true
					if needs[dst][ci] {
						needs[dst][ci] = false
						missing[ci]--
						totalMissing--
					}
				}
				sentAt[l][k]++
				sends = append(sends, schedule.Send{
					Src: in.comms[ci].src, Chunk: in.comms[ci].chunk,
					Link: topo.LinkID(l), Epoch: k, Fraction: 1,
				})
			}
		}
	}
	if totalMissing > 0 {
		return nil
	}
	return sends
}
