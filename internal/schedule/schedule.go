// Package schedule defines the output of collective-communication
// optimizers: which chunk crosses which link in which epoch. It provides
// validity checking (causality, capacity, switch memory, demand
// satisfaction), the reverse-DFS pruning of wasteful flows from §3.1 of
// the paper, and epoch-level completion-time accounting.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// Send is one chunk transmission (possibly a fraction of a chunk, for
// schedules derived from the LP form) over one link starting at the given
// epoch.
type Send struct {
	Src      int // origin source node of the chunk
	Chunk    int // chunk ID within the source
	Link     topo.LinkID
	Epoch    int
	Fraction float64 // in (0, 1]; 1 for whole-chunk (MILP) schedules
}

// Schedule is a complete collective schedule.
type Schedule struct {
	Topo   *topo.Topology
	Demand *collective.Demand
	// Tau is the epoch duration in seconds.
	Tau float64
	// NumEpochs is the horizon K+1 the schedule was solved with.
	NumEpochs int
	// Sends lists every transmission. Order is not significant.
	Sends []Send
	// AllowCopy records whether the schedule may duplicate chunks in the
	// network (affects validation semantics).
	AllowCopy bool
	// EpochsPerChunk is the sliding-window factor κ per link used when the
	// epoch duration is set from the fastest link (Appendix F); nil means
	// every link fits a chunk per epoch.
	EpochsPerChunk []int
}

// Delta returns ⌈α/τ⌉ for link l: the extra epochs a chunk spends in
// flight due to the link's fixed latency.
func (s *Schedule) Delta(l topo.LinkID) int {
	a := s.Topo.Link(l).Alpha
	if a <= 0 || s.Tau <= 0 {
		return 0
	}
	return int(math.Ceil(a/s.Tau - 1e-9))
}

// kappa returns the sliding-window factor for link l (Appendix F).
func (s *Schedule) kappa(l topo.LinkID) int {
	if s.EpochsPerChunk == nil || int(l) >= len(s.EpochsPerChunk) {
		return 1
	}
	if k := s.EpochsPerChunk[l]; k > 1 {
		return k
	}
	return 1
}

// ArrivalEpoch returns the epoch by whose end a send is resident at the
// link's destination: epoch + ⌈δ⌉ + (κ-1) for links that need κ epochs to
// transmit one chunk.
func (s *Schedule) ArrivalEpoch(send Send) int {
	return send.Epoch + s.Delta(send.Link) + s.kappa(send.Link) - 1
}

// FinishEpoch returns the epoch by whose end every demanded chunk has
// reached its destination, or -1 if the schedule does not satisfy the
// demand. Call Validate first to check full validity.
func (s *Schedule) FinishEpoch() int {
	type key struct{ src, chunk, dst int }
	arrive := map[key]int{}
	for _, snd := range s.Sends {
		dst := int(s.Topo.Link(snd.Link).Dst)
		k := key{snd.Src, snd.Chunk, dst}
		ae := s.ArrivalEpoch(snd)
		if cur, ok := arrive[k]; !ok || ae < cur {
			arrive[k] = ae
		}
	}
	finish := 0
	d := s.Demand
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if !d.Wants(src, c, dst) {
					continue
				}
				ae, ok := arrive[key{src, c, dst}]
				if !ok {
					return -1
				}
				if ae > finish {
					finish = ae
				}
			}
		}
	}
	return finish
}

// FinishTime returns the epoch-quantized completion time in seconds:
// (FinishEpoch+1) · τ. Returns +Inf if the demand is unsatisfied.
func (s *Schedule) FinishTime() float64 {
	fe := s.FinishEpoch()
	if fe < 0 {
		return math.Inf(1)
	}
	return float64(fe+1) * s.Tau
}

// AlgoBandwidth returns TACCL's algorithmic-bandwidth metric: the maximum
// per-GPU output buffer size divided by the completion time.
func (s *Schedule) AlgoBandwidth() float64 {
	ft := s.FinishTime()
	if math.IsInf(ft, 1) || ft == 0 {
		return 0
	}
	return s.Demand.MaxOutputBufferBytes() / ft
}

// TotalBytesSent sums the bytes placed on links by the schedule.
func (s *Schedule) TotalBytesSent() float64 {
	var total float64
	for _, snd := range s.Sends {
		total += snd.Fraction * s.Demand.ChunkBytes
	}
	return total
}

// FracTol is the slack Validate allows a chunk fraction: LP-derived
// schedules carry solver noise, so a fraction, a held amount or a
// delivered total counts as reached within FracTol of it. sim.Run
// honours the same slack.
const FracTol = 1e-6

// Validate checks the schedule end to end:
//
//   - capacity: bytes per link per (windowed) epoch within T·τ·κ;
//   - causality: a node only sends fractions of chunks it holds, where
//     origin sources hold their chunks from epoch 0 and arrivals become
//     forwardable the epoch after they land;
//   - switch memory: switches cannot buffer — they forward an arrival only
//     in the epoch immediately after it lands;
//   - copy discipline: without copy, the total fraction leaving a node
//     never exceeds the fraction that entered it;
//   - completeness: every demanded (src, chunk, dst) fully arrives.
func (s *Schedule) Validate() error {
	t := s.Topo
	d := s.Demand
	nC := d.NumChunks()
	chunkKey := func(src, c int) int { return src*nC + c }

	// Horizon: allow arrivals past NumEpochs only if NumEpochs is 0 (not
	// tracked); otherwise sends must start within the horizon.
	for i, snd := range s.Sends {
		if snd.Epoch < 0 {
			return fmt.Errorf("send %d: negative epoch %d", i, snd.Epoch)
		}
		if s.NumEpochs > 0 && snd.Epoch >= s.NumEpochs {
			return fmt.Errorf("send %d: epoch %d beyond horizon %d", i, snd.Epoch, s.NumEpochs)
		}
		if snd.Fraction <= 0 || snd.Fraction > 1+FracTol {
			return fmt.Errorf("send %d: fraction %g out of (0,1]", i, snd.Fraction)
		}
		if int(snd.Link) < 0 || int(snd.Link) >= t.NumLinks() {
			return fmt.Errorf("send %d: bad link %d", i, snd.Link)
		}
		if t.LinkDown(snd.Link) {
			return fmt.Errorf("send %d: link %d is down", i, snd.Link)
		}
		if snd.Src < 0 || snd.Src >= d.NumNodes() || snd.Chunk < 0 || snd.Chunk >= nC {
			return fmt.Errorf("send %d: bad chunk identity (%d,%d)", i, snd.Src, snd.Chunk)
		}
	}

	// Capacity per link with sliding window κ (Appendix F).
	type le struct {
		link  topo.LinkID
		epoch int
	}
	load := map[le]float64{}
	maxEpoch := 0
	for _, snd := range s.Sends {
		load[le{snd.Link, snd.Epoch}] += snd.Fraction * d.ChunkBytes
		if ae := s.ArrivalEpoch(snd); ae > maxEpoch {
			maxEpoch = ae
		}
	}
	for key := range load {
		kap := s.kappa(key.link)
		var window float64
		for k := key.epoch; k > key.epoch-kap && k >= 0; k-- {
			window += load[le{key.link, k}]
		}
		budget := t.Link(key.link).Capacity * s.Tau * float64(kap)
		if window > budget*(1+1e-6)+1e-9 {
			return fmt.Errorf("link %d epoch %d: %g bytes exceed window budget %g",
				key.link, key.epoch, window, budget)
		}
	}

	// Causality and copy discipline, epoch by epoch.
	sends := append([]Send(nil), s.Sends...)
	sort.Slice(sends, func(i, j int) bool {
		if sends[i].Epoch != sends[j].Epoch {
			return sends[i].Epoch < sends[j].Epoch
		}
		return sends[i].Link < sends[j].Link
	})

	// availGPU[node][key]: fraction forwardable at the current epoch
	// (cumulative). availSwitchAt[node][key][epoch]: fraction arriving at
	// a switch that is forwardable exactly in that epoch.
	availGPU := make([]map[int]float64, t.NumNodes())
	usedNoCopy := make([]map[int]float64, t.NumNodes())
	availSwitchAt := make([]map[int]map[int]float64, t.NumNodes())
	for n := 0; n < t.NumNodes(); n++ {
		availGPU[n] = map[int]float64{}
		usedNoCopy[n] = map[int]float64{}
		availSwitchAt[n] = map[int]map[int]float64{}
	}
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < nC; c++ {
			if d.SourceHasChunk(src, c) {
				availGPU[src][chunkKey(src, c)] = 1
			}
		}
	}

	// pending arrivals indexed by forwardable epoch.
	type arrival struct {
		node int
		key  int
		frac float64
	}
	pending := map[int][]arrival{}
	addArrival := func(epoch, node, key int, frac float64) {
		pending[epoch] = append(pending[epoch], arrival{node, key, frac})
	}

	// Per-link, per-epoch sent fraction per chunk for the copy check:
	// each link may carry at most the available fraction of each chunk.
	si := 0
	delivered := make([]map[int]float64, t.NumNodes())
	for n := range delivered {
		delivered[n] = map[int]float64{}
	}
	for epoch := 0; epoch <= maxEpoch+1; epoch++ {
		// Materialize arrivals that became forwardable this epoch.
		for _, a := range pending[epoch] {
			if t.IsSwitch(topo.NodeID(a.node)) {
				m := availSwitchAt[a.node][a.key]
				if m == nil {
					m = map[int]float64{}
					availSwitchAt[a.node][a.key] = m
				}
				m[epoch] += a.frac
			} else {
				availGPU[a.node][a.key] += a.frac
			}
		}
		delete(pending, epoch)

		// Per-(node,link,chunk) totals within this epoch for copy check.
		perLink := map[string]float64{}
		perNodeOut := map[[2]int]float64{}
		for ; si < len(sends) && sends[si].Epoch == epoch; si++ {
			snd := sends[si]
			l := t.Link(snd.Link)
			n := int(l.Src)
			key := chunkKey(snd.Src, snd.Chunk)

			var avail float64
			if t.IsSwitch(l.Src) {
				avail = availSwitchAt[n][key][epoch]
			} else {
				avail = availGPU[n][key]
			}
			if avail <= 0 {
				return fmt.Errorf("epoch %d: node %d sends chunk (%d,%d) it does not hold",
					epoch, n, snd.Src, snd.Chunk)
			}

			lk := fmt.Sprintf("%d/%d/%d", snd.Link, snd.Src, snd.Chunk)
			perLink[lk] += snd.Fraction
			if perLink[lk] > avail+FracTol {
				return fmt.Errorf("epoch %d: link %d carries %g of chunk (%d,%d) but only %g is held",
					epoch, snd.Link, perLink[lk], snd.Src, snd.Chunk, avail)
			}
			if !s.AllowCopy {
				k2 := [2]int{n, key}
				perNodeOut[k2] += snd.Fraction
				// A switch's availability is per-epoch (it cannot hold
				// chunks), so only this epoch's outflow counts against it;
				// a GPU's availability is cumulative, so all prior outflow
				// counts.
				used := 0.0
				if !t.IsSwitch(l.Src) {
					used = usedNoCopy[n][key]
				}
				if perNodeOut[k2]+used > avail+FracTol {
					return fmt.Errorf("epoch %d: node %d duplicates chunk (%d,%d) without copy support",
						epoch, n, snd.Src, snd.Chunk)
				}
			}

			// Schedule the arrival.
			fwd := s.ArrivalEpoch(snd) + 1
			dst := int(l.Dst)
			addArrival(fwd, dst, key, snd.Fraction)
			if !t.IsSwitch(l.Dst) {
				delivered[dst][key] += snd.Fraction
			}
		}
		if !s.AllowCopy {
			for k2, out := range perNodeOut {
				usedNoCopy[k2[0]][k2[1]] += out
			}
		}
	}

	// Completeness.
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < nC; c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if !d.Wants(src, c, dst) {
					continue
				}
				if delivered[dst][chunkKey(src, c)] < 1-FracTol {
					return fmt.Errorf("demand unmet: dst %d holds %.4f of chunk (%d,%d)",
						dst, delivered[dst][chunkKey(src, c)], src, c)
				}
			}
		}
	}
	return nil
}

// Prune removes sends that do not contribute to satisfying any demand —
// the reverse-DFS post-processing of §3.1. It applies to whole-chunk
// schedules (every Fraction == 1); fractional schedules are returned
// unchanged. The receiver is not modified; a pruned copy is returned.
func (s *Schedule) Prune() *Schedule {
	for _, snd := range s.Sends {
		if snd.Fraction != 1 {
			return s
		}
	}
	t := s.Topo
	d := s.Demand
	nC := d.NumChunks()
	chunkKey := func(src, c int) int { return src*nC + c }

	// Index sends by (dstNode, chunkKey) with arrival epochs, and by
	// (srcNode, chunkKey) for the backward walk.
	type arr struct {
		idx     int // send index
		arrival int // forwardable epoch at dst (arrival+1)
	}
	into := map[[2]int][]arr{}
	for i, snd := range s.Sends {
		dst := int(t.Link(snd.Link).Dst)
		into[[2]int{dst, chunkKey(snd.Src, snd.Chunk)}] = append(
			into[[2]int{dst, chunkKey(snd.Src, snd.Chunk)}],
			arr{i, s.ArrivalEpoch(snd)})
	}
	for k := range into {
		a := into[k]
		sort.Slice(a, func(i, j int) bool { return a[i].arrival < a[j].arrival })
		into[k] = a
	}

	keep := make([]bool, len(s.Sends))
	// need marks (node, chunkKey, byEpoch): node must hold the chunk with
	// forwardable epoch <= byEpoch. Memoize visited states coarsely by
	// keeping the weakest requirement satisfied.
	type needKey struct {
		node, key, by int
	}
	visited := map[needKey]bool{}
	var require func(node, key, by int) bool
	require = func(node, key, by int) bool {
		src := key / nC
		if node == src {
			return true // origin holds it from epoch 0
		}
		nk := needKey{node, key, by}
		if visited[nk] {
			return true
		}
		visited[nk] = true
		// Choose the earliest arrival whose forwardable epoch meets the
		// deadline: an arrival landing by the end of epoch a.arrival can
		// be forwarded from epoch a.arrival+1 on.
		isSwitch := t.IsSwitch(topo.NodeID(node))
		for _, a := range into[[2]int{node, key}] {
			if a.arrival+1 > by {
				break
			}
			// A switch cannot buffer: the feeding arrival must be
			// forwardable exactly at the epoch the switch sends.
			if isSwitch && by <= s.NumEpochs && a.arrival+1 != by {
				continue
			}
			snd := s.Sends[a.idx]
			l := t.Link(snd.Link)
			if require(int(l.Src), key, snd.Epoch) {
				keep[a.idx] = true
				return true
			}
		}
		delete(visited, nk)
		return false
	}

	big := s.NumEpochs + 1000
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < nC; c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if d.Wants(src, c, dst) {
					require(dst, chunkKey(src, c), big)
				}
			}
		}
	}

	out := *s
	out.Sends = nil
	for i, snd := range s.Sends {
		if keep[i] {
			out.Sends = append(out.Sends, snd)
		}
	}
	return &out
}
