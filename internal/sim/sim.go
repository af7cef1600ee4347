// Package sim executes collective schedules in continuous time under the
// α-β cost model: a send of S bytes on a link with capacity C and latency
// α occupies the link for S/C seconds and lands α seconds after its
// transmission completes. The paper computes its transfer-time and
// algorithmic-bandwidth numbers from schedules in exactly this way (§6
// "Platform"); the simulator also independently cross-checks causality,
// complementing schedule.Validate's epoch-level checks.
package sim

import (
	"fmt"
	"math"
	"sort"

	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// Result reports the continuous-time execution of a schedule.
type Result struct {
	// FinishTime is the time (seconds) the last demanded chunk lands.
	FinishTime float64
	// AlgoBandwidth is max-output-buffer / FinishTime (TACCL's metric).
	AlgoBandwidth float64
	// TotalBytes is the total bytes transmitted.
	TotalBytes float64
	// LinkBusy maps each used link to the seconds it spent transmitting.
	LinkBusy map[topo.LinkID]float64
	// DestFinish is the per-destination time its full demand landed,
	// keyed by node ID (only destinations with demand appear).
	DestFinish map[int]float64
}

// arrivalList tracks cumulative fraction arrivals of one chunk at a node.
type arrivalList struct {
	times []float64 // sorted event times
	fracs []float64 // fraction landing at each time
	total float64
}

func (a *arrivalList) add(t, f float64) {
	// Arrival times are appended in nondecreasing processing order per
	// epoch, but different links can interleave; insert sorted.
	i := sort.SearchFloat64s(a.times, t)
	a.times = append(a.times, 0)
	a.fracs = append(a.fracs, 0)
	copy(a.times[i+1:], a.times[i:])
	copy(a.fracs[i+1:], a.fracs[i:])
	a.times[i] = t
	a.fracs[i] = f
	a.total += f
}

// timeAtFraction returns the earliest time the cumulative arrived fraction
// reaches f, or +Inf if it never does. Reaching means within 1e-9 or,
// failing that, within schedule.FracTol — the slack schedule.Validate
// grants — so a schedule Validate accepts runs, and one that reaches f
// within 1e-9 keeps the time it always had.
func (a *arrivalList) timeAtFraction(f float64) float64 {
	if f <= 1e-12 {
		return 0
	}
	for _, tol := range []float64{1e-9, schedule.FracTol} {
		var cum float64
		for i, t := range a.times {
			cum += a.fracs[i]
			if cum >= f-tol {
				return t
			}
		}
	}
	return math.Inf(1)
}

// Run executes the schedule in continuous time. It returns an error if a
// send would have to begin before its chunk fraction is present at the
// sending node (a causality failure the epoch model missed) or if the
// demand is not fully delivered.
func Run(s *schedule.Schedule) (*Result, error) {
	t := s.Topo
	d := s.Demand
	nC := d.NumChunks()
	key := func(src, c int) int { return src*nC + c }

	sends := append([]schedule.Send(nil), s.Sends...)
	sort.Slice(sends, func(i, j int) bool {
		if sends[i].Epoch != sends[j].Epoch {
			return sends[i].Epoch < sends[j].Epoch
		}
		return sends[i].Link < sends[j].Link
	})

	avail := map[[2]int]*arrivalList{} // (node, chunkKey) -> arrivals
	at := func(node, k int) *arrivalList {
		a := avail[[2]int{node, k}]
		if a == nil {
			a = &arrivalList{}
			avail[[2]int{node, k}] = a
		}
		return a
	}
	// Origin sources hold their chunks at time 0.
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < nC; c++ {
			if d.SourceHasChunk(src, c) {
				at(src, key(src, c)).add(0, 1)
			}
		}
	}

	linkFree := map[topo.LinkID]float64{}
	linkBusy := map[topo.LinkID]float64{}
	sentFrom := map[[2]int]float64{} // no-copy accounting
	var totalBytes float64

	for i, snd := range sends {
		l := t.Link(snd.Link)
		node := int(l.Src)
		k := key(snd.Src, snd.Chunk)

		// When is the fraction available at the sender?
		need := snd.Fraction
		if !s.AllowCopy {
			need += sentFrom[[2]int{node, k}]
		}
		ready := at(node, k).timeAtFraction(need)
		if math.IsInf(ready, 1) {
			return nil, fmt.Errorf("send %d: node %d never holds %.3f of chunk (%d,%d)",
				i, node, need, snd.Src, snd.Chunk)
		}

		epochStart := float64(snd.Epoch) * s.Tau
		start := math.Max(epochStart, math.Max(ready, linkFree[snd.Link]))
		trans := snd.Fraction * d.ChunkBytes / l.Capacity
		linkFree[snd.Link] = start + trans
		linkBusy[snd.Link] += trans
		land := start + trans + l.Alpha
		totalBytes += snd.Fraction * d.ChunkBytes

		at(int(l.Dst), k).add(land, snd.Fraction)
		if !s.AllowCopy {
			sentFrom[[2]int{node, k}] += snd.Fraction
		}
	}

	// Demand satisfaction and finish times.
	res := &Result{
		TotalBytes: totalBytes,
		LinkBusy:   linkBusy,
		DestFinish: map[int]float64{},
	}
	for dst := 0; dst < d.NumNodes(); dst++ {
		finish := 0.0
		has := false
		for src := 0; src < d.NumNodes(); src++ {
			for c := 0; c < nC; c++ {
				if !d.Wants(src, c, dst) {
					continue
				}
				has = true
				ft := at(dst, key(src, c)).timeAtFraction(1)
				if math.IsInf(ft, 1) {
					return nil, fmt.Errorf("demand unmet: dst %d never receives chunk (%d,%d)", dst, src, c)
				}
				if ft > finish {
					finish = ft
				}
			}
		}
		if has {
			res.DestFinish[dst] = finish
			if finish > res.FinishTime {
				res.FinishTime = finish
			}
		}
	}
	if res.FinishTime > 0 {
		res.AlgoBandwidth = d.MaxOutputBufferBytes() / res.FinishTime
	}
	return res, nil
}

// RunOn executes the schedule against a different topology with the same
// link IDs (e.g. the real topology after solving on an α-zeroed copy, as
// the Figure 2 experiment requires). The schedule itself is unchanged.
func RunOn(s *schedule.Schedule, t *topo.Topology) (*Result, error) {
	if t.NumLinks() != s.Topo.NumLinks() || t.NumNodes() != s.Topo.NumNodes() {
		return nil, fmt.Errorf("sim: topology shape mismatch (%d/%d links, %d/%d nodes)",
			t.NumLinks(), s.Topo.NumLinks(), t.NumNodes(), s.Topo.NumNodes())
	}
	clone := *s
	clone.Topo = t
	return Run(&clone)
}
