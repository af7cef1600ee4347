package core

import (
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// sendsFinishEpoch returns the latest arrival epoch of a send list.
func sendsFinishEpoch(in *instance, sends []schedule.Send) int {
	finish := 0
	for _, snd := range sends {
		l := int(snd.Link)
		if ae := snd.Epoch + in.delta[l] + in.kappa[l] - 1; ae > finish {
			finish = ae
		}
	}
	return finish
}

// lpGreedyBound computes a feasible no-copy completion epoch by routing
// every (source, chunk, destination) triple along its hop-shortest path
// with greedy windowed list scheduling — a quick SPF-style upper bound
// that tightens the LP horizon far below the analytic estimate, and
// returns the planned sends so their path support can seed a crash basis
// (see crashBasisLP). The sends of one triple are appended consecutively,
// triples in (source, chunk, destination) order, each triple's hops in
// path order and chained: a hop's link Dst is the next hop's link Src,
// and the next hop departs after the previous one lands. crashBasisLP
// reads each path's relay holdings and landing read from that order.
// Returns -1 and nil sends when the greedy fails.
func lpGreedyBound(in *instance) (int, []schedule.Send) {
	t := in.topo
	d := in.demand

	// Next-hop routing toward each destination along δ+κ shortest paths.
	// Precompute per-destination next-hop link from each node.
	nN := t.NumNodes()
	next := make([][]int, nN) // next[dst][node] = link toward dst, -1 none
	dist := in.hopDistances()
	for dst := 0; dst < nN; dst++ {
		next[dst] = make([]int, nN)
		for n := range next[dst] {
			next[dst][n] = -1
		}
		for n := 0; n < nN; n++ {
			if n == dst {
				continue
			}
			bestLink, bestCost := -1, 0.0
			for _, lid := range t.Out(topo.NodeID(n)) {
				l := int(lid)
				lk := t.Link(lid)
				c := float64(in.delta[l]+in.kappa[l]) + dist[lk.Dst][dst]
				if bestLink == -1 || c < bestCost {
					bestLink, bestCost = l, c
				}
			}
			if bestCost < float64(10*in.K+1000) {
				next[dst][n] = bestLink
			}
		}
	}

	linkUsed := map[[2]int]float64{}
	windowFree := func(plan [][2]int, l, k int) bool {
		kap := in.kappa[l]
		used := 0.0
		for kk := k - kap + 1; kk <= k; kk++ {
			if kk < 0 {
				continue
			}
			used += linkUsed[[2]int{l, kk}]
			for _, h := range plan {
				if h[0] == l && h[1] == kk {
					used++
				}
			}
		}
		return used+1 <= in.capChunks[l]*float64(kap)+1e-9
	}

	// Each triple is planned hop-by-hop before anything is reserved:
	// GPU hops can buffer and wait for a free window, but a switch must
	// forward an arrival in the very next epoch, so a busy switch window
	// invalidates the attempt — the whole path retries with a later
	// departure instead of giving up (which previously made the bound
	// unusable on any switch-centric topology).
	horizon := 16*in.K + 64
	finish := 0
	var plan [][2]int
	var sends []schedule.Send
	for s := 0; s < d.NumNodes(); s++ {
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if !d.Wants(s, c, dst) {
					continue
				}
				routed := false
				for t0 := 0; t0 <= horizon && !routed; t0++ {
					plan = plan[:0]
					at := t0
					node := s
					ok := true
					//teccl:allow-ctxcheck bounded: each next[dst] hop costs δ+κ >= 1 on top of the next node's distance, so dist[node][dst] strictly falls and the walk takes at most dist[s][dst] hops
					for node != dst {
						l := next[dst][node]
						if l < 0 {
							return -1, nil // no route at all
						}
						k := at
						if t.IsSwitch(topo.NodeID(node)) {
							if !windowFree(plan, l, k) {
								ok = false
								break
							}
						} else {
							//teccl:allow-ctxcheck bounded: k rises every iteration and the loop returns once it passes horizon
							for !windowFree(plan, l, k) {
								k++
								if k > horizon {
									// A GPU hop that exhausts the horizon
									// only starts later for larger t0:
									// retrying departures cannot help.
									return -1, nil
								}
							}
						}
						plan = append(plan, [2]int{l, k})
						arr := k + in.delta[l] + in.kappa[l] - 1
						at = arr + 1
						node = int(t.Link(topo.LinkID(l)).Dst)
					}
					if !ok {
						continue
					}
					for _, h := range plan {
						linkUsed[h]++
						if arr := h[1] + in.delta[h[0]] + in.kappa[h[0]] - 1; arr > finish {
							finish = arr
						}
						sends = append(sends, schedule.Send{
							Src: s, Chunk: c, Link: topo.LinkID(h[0]),
							Epoch: h[1], Fraction: 1,
						})
					}
					routed = true
				}
				if !routed {
					return -1, nil
				}
			}
		}
	}
	return finish, sends
}
