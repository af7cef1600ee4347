// Package wireconv converts between the wire schema (teccl/wire, pure
// serializable types, stdlib-only by machine-enforced rule) and the
// in-process planner types. All validation of wire input happens here,
// on the way in, so a malformed request fails at decode time rather
// than inside a solver: demand triples are range-checked, option
// enumerations are parsed strictly, and topologies are rebuilt through
// topo's own unmarshalling (which validates link endpoints and replays
// churn state).
package wireconv

import (
	"encoding/json"
	"fmt"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/schedule"
	"teccl/internal/topo"
	"teccl/wire"
)

// FromDemand converts an in-process demand to its wire form.
func FromDemand(d *collective.Demand) wire.Demand {
	out := wire.Demand{
		NumNodes:   d.NumNodes(),
		NumChunks:  d.NumChunks(),
		ChunkBytes: d.ChunkBytes,
	}
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if d.Wants(src, c, dst) {
					out.Wants = append(out.Wants, wire.Want{Src: src, Chunk: c, Dst: dst})
				}
			}
		}
	}
	return out
}

// maxDemandCells bounds the want set a wire demand may size: it is
// NumNodes × NumChunks × NumNodes cells, one byte each, allocated from
// three integers before a single triple is read. 64 Mi cells (64 MB) is
// some thirty times a 128-GPU ALLTOALL with one chunk per pair and a few
// switches (≈ 136 × 127 × 136 ≈ 2.3 M).
const maxDemandCells = 1 << 26

// ToDemand converts a wire demand back to the in-process form,
// validating dimensions and every triple.
func ToDemand(d wire.Demand) (*collective.Demand, error) {
	if d.NumNodes <= 0 || d.NumChunks <= 0 {
		return nil, fmt.Errorf("wire: bad demand dimensions %d nodes, %d chunks", d.NumNodes, d.NumChunks)
	}
	if d.NumNodes > maxDemandCells || d.NumChunks > maxDemandCells/d.NumNodes/d.NumNodes {
		return nil, fmt.Errorf("wire: demand of %d nodes × %d chunks exceeds %d cells", d.NumNodes, d.NumChunks, maxDemandCells)
	}
	if d.ChunkBytes <= 0 {
		return nil, fmt.Errorf("wire: bad demand chunk size %g", d.ChunkBytes)
	}
	out := collective.New(d.NumNodes, d.NumChunks, d.ChunkBytes)
	for _, w := range d.Wants {
		if w.Src < 0 || w.Src >= d.NumNodes || w.Dst < 0 || w.Dst >= d.NumNodes ||
			w.Chunk < 0 || w.Chunk >= d.NumChunks {
			return nil, fmt.Errorf("wire: demand triple (%d,%d,%d) out of range (%d nodes, %d chunks)",
				w.Src, w.Chunk, w.Dst, d.NumNodes, d.NumChunks)
		}
		if w.Src == w.Dst {
			continue // a node always has its own chunks
		}
		out.Set(w.Src, w.Chunk, w.Dst)
	}
	return out, nil
}

// FromTopology snapshots an in-process topology into its wire form. The
// wire.Topology mirrors topo's JSON schema byte for byte, so the
// conversion rides the topology's own marshaller (which records churn
// state in Down).
func FromTopology(t *topo.Topology) (*wire.Topology, error) {
	if t == nil {
		return nil, nil
	}
	raw, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("wire: snapshotting topology: %w", err)
	}
	out := new(wire.Topology)
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("wire: snapshotting topology: %w", err)
	}
	return out, nil
}

// ToTopology rebuilds an in-process topology from its wire form,
// through topo's unmarshaller so link endpoints are validated and the
// Down list is replayed.
func ToTopology(w *wire.Topology) (*topo.Topology, error) {
	if w == nil {
		return nil, nil
	}
	raw, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("wire: bad topology: %w", err)
	}
	out := new(topo.Topology)
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("wire: bad topology: %w", err)
	}
	return out, nil
}

// FromOptions converts the serializable fields of in-process options to
// wire form. Priority/LinkCapacity/Progress functions are NOT carried
// (see SamplePriority for the priority path); the caller decides
// whether their presence is an error.
func FromOptions(o core.Options) wire.Options {
	out := wire.Options{
		Epochs:            o.Epochs,
		Tau:               o.Tau,
		EpochMultiplier:   o.EpochMultiplier,
		NoBuffers:         o.NoBuffers,
		BufferLimitChunks: o.BufferLimitChunks,
		GapLimit:          o.GapLimit,
		TimeLimitMs:       o.TimeLimit.Milliseconds(),
		MinimizeMakespan:  o.MinimizeMakespan,
		Workers:           o.Workers,
		RoundEpochs:       o.RoundEpochs,
		MaxRounds:         o.MaxRounds,

		HorizonWindow:       o.HorizonWindow,
		HorizonOverlap:      o.HorizonOverlap,
		HorizonCertifyMs:    o.HorizonCertify.Milliseconds(),
		AutoEpochMultiplier: o.AutoEpochMultiplier,
		HorizonCellBudget:   o.HorizonCellBudget,
	}
	if o.EpochMode == core.SlowestLink {
		out.EpochMode = "slowest"
	}
	if o.SwitchMode == core.SwitchNoCopy {
		out.SwitchMode = "nocopy"
	}
	switch o.Crash {
	case core.CrashAll:
		out.Crash = "all"
	case core.CrashOff:
		out.Crash = "off"
	}
	return out
}

// SamplePriority samples a priority function over the demanded triples,
// returning the non-neutral weights in wire form. Only demanded triples
// carry delivery rewards, so the sample is exact.
func SamplePriority(pri func(src, chunk, dst int) float64, d *collective.Demand) []wire.PriorityWeight {
	if pri == nil || d == nil {
		return nil
	}
	var out []wire.PriorityWeight
	for src := 0; src < d.NumNodes(); src++ {
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if !d.Wants(src, c, dst) {
					continue
				}
				if w := pri(src, c, dst); w != 1 {
					out = append(out, wire.PriorityWeight{Src: src, Chunk: c, Dst: dst, Weight: w})
				}
			}
		}
	}
	return out
}

// ToOptions converts wire options to the in-process form, validating
// the enumerations and rebuilding the Priority function from the
// sampled weights.
func ToOptions(o wire.Options) (core.Options, error) {
	out := core.Options{
		Epochs:            o.Epochs,
		Tau:               o.Tau,
		EpochMultiplier:   o.EpochMultiplier,
		NoBuffers:         o.NoBuffers,
		BufferLimitChunks: o.BufferLimitChunks,
		GapLimit:          o.GapLimit,
		TimeLimit:         time.Duration(o.TimeLimitMs) * time.Millisecond,
		MinimizeMakespan:  o.MinimizeMakespan,
		Workers:           o.Workers,
		RoundEpochs:       o.RoundEpochs,
		MaxRounds:         o.MaxRounds,

		HorizonWindow:       o.HorizonWindow,
		HorizonOverlap:      o.HorizonOverlap,
		HorizonCertify:      time.Duration(o.HorizonCertifyMs) * time.Millisecond,
		AutoEpochMultiplier: o.AutoEpochMultiplier,
		HorizonCellBudget:   o.HorizonCellBudget,
	}
	switch o.EpochMode {
	case "", "fastest":
	case "slowest":
		out.EpochMode = core.SlowestLink
	default:
		return out, fmt.Errorf("wire: unknown epoch_mode %q", o.EpochMode)
	}
	switch o.SwitchMode {
	case "", "copy":
	case "nocopy":
		out.SwitchMode = core.SwitchNoCopy
	default:
		return out, fmt.Errorf("wire: unknown switch_mode %q", o.SwitchMode)
	}
	switch o.Crash {
	case "", "auto":
	case "all":
		out.Crash = core.CrashAll
	case "off":
		out.Crash = core.CrashOff
	default:
		return out, fmt.Errorf("wire: unknown crash mode %q", o.Crash)
	}
	if len(o.Priority) > 0 {
		weights := make(map[[3]int]float64, len(o.Priority))
		for _, p := range o.Priority {
			if p.Weight <= 0 {
				return out, fmt.Errorf("wire: non-positive priority weight %g for (%d,%d,%d)",
					p.Weight, p.Src, p.Chunk, p.Dst)
			}
			weights[[3]int{p.Src, p.Chunk, p.Dst}] = p.Weight
		}
		out.Priority = func(src, chunk, dst int) float64 {
			if w, ok := weights[[3]int{src, chunk, dst}]; ok {
				return w
			}
			return 1
		}
	}
	return out, nil
}

// ParseSolver maps a wire solver name to the in-process identifier.
func ParseSolver(s string) (core.Solver, error) {
	switch s {
	case "", "auto":
		return core.SolverAuto, nil
	case "lp":
		return core.SolverLP, nil
	case "milp":
		return core.SolverMILP, nil
	case "astar":
		return core.SolverAStar, nil
	case "horizon":
		return core.SolverHorizon, nil
	}
	return core.SolverAuto, fmt.Errorf("wire: unknown solver %q", s)
}

// SolverName maps an in-process solver identifier to its wire name.
func SolverName(s core.Solver) string { return s.String() }

// FromDelta converts an in-process replan delta to wire form.
func FromDelta(d core.Delta) wire.Delta {
	var out wire.Delta
	for _, n := range d.AddNodes {
		out.AddNodes = append(out.AddNodes, wire.Node{Name: n.Name, Switch: n.Switch})
	}
	for _, l := range d.AddLinks {
		out.AddLinks = append(out.AddLinks, wire.Link{
			Src: int(l.Src), Dst: int(l.Dst), Capacity: l.Capacity, Alpha: l.Alpha,
		})
	}
	for _, l := range d.LinksDown {
		out.LinksDown = append(out.LinksDown, int(l))
	}
	for _, n := range d.NodesDown {
		out.NodesDown = append(out.NodesDown, int(n))
	}
	for _, s := range d.Scale {
		out.Scale = append(out.Scale, wire.LinkScale{Link: int(s.Link), Capacity: s.Capacity, Alpha: s.Alpha})
	}
	for _, p := range d.DropPairs {
		out.DropPairs = append(out.DropPairs, wire.Pair{Src: p.Src, Dst: p.Dst})
	}
	if d.AddDemand != nil {
		ad := FromDemand(d.AddDemand)
		out.AddDemand = &ad
	}
	return out
}

// ToDelta converts a wire delta to the in-process form. ID range
// checking is left to Planner.Replan, which validates against the live
// session topology.
func ToDelta(d wire.Delta) (core.Delta, error) {
	var out core.Delta
	for _, n := range d.AddNodes {
		out.AddNodes = append(out.AddNodes, topo.Node{Name: n.Name, Switch: n.Switch})
	}
	for _, l := range d.AddLinks {
		out.AddLinks = append(out.AddLinks, topo.Link{
			Src: topo.NodeID(l.Src), Dst: topo.NodeID(l.Dst), Capacity: l.Capacity, Alpha: l.Alpha,
		})
	}
	for _, l := range d.LinksDown {
		out.LinksDown = append(out.LinksDown, topo.LinkID(l))
	}
	for _, n := range d.NodesDown {
		out.NodesDown = append(out.NodesDown, topo.NodeID(n))
	}
	for _, s := range d.Scale {
		out.Scale = append(out.Scale, topo.LinkScale{Link: topo.LinkID(s.Link), Capacity: s.Capacity, Alpha: s.Alpha})
	}
	for _, p := range d.DropPairs {
		out.DropPairs = append(out.DropPairs, core.DemandPair{Src: p.Src, Dst: p.Dst})
	}
	if d.AddDemand != nil {
		ad, err := ToDemand(*d.AddDemand)
		if err != nil {
			return out, err
		}
		out.AddDemand = ad
	}
	return out, nil
}

// FromSchedule converts an in-process schedule to wire form.
func FromSchedule(s *schedule.Schedule) *wire.Schedule {
	if s == nil {
		return nil
	}
	out := &wire.Schedule{
		Tau:            s.Tau,
		NumEpochs:      s.NumEpochs,
		AllowCopy:      s.AllowCopy,
		EpochsPerChunk: s.EpochsPerChunk,
		Sends:          make([]wire.Send, len(s.Sends)),
	}
	for i, snd := range s.Sends {
		out.Sends[i] = wire.Send{
			Src: snd.Src, Chunk: snd.Chunk, Link: int(snd.Link),
			Epoch: snd.Epoch, Fraction: snd.Fraction,
		}
	}
	return out
}

// ToSchedule rebinds a wire schedule to a topology and demand (the
// session's current snapshots, client side).
func ToSchedule(s *wire.Schedule, t *topo.Topology, d *collective.Demand) *schedule.Schedule {
	if s == nil {
		return nil
	}
	out := &schedule.Schedule{
		Topo: t, Demand: d,
		Tau:            s.Tau,
		NumEpochs:      s.NumEpochs,
		AllowCopy:      s.AllowCopy,
		EpochsPerChunk: s.EpochsPerChunk,
		Sends:          make([]schedule.Send, len(s.Sends)),
	}
	for i, snd := range s.Sends {
		out.Sends[i] = schedule.Send{
			Src: snd.Src, Chunk: snd.Chunk, Link: topo.LinkID(snd.Link),
			Epoch: snd.Epoch, Fraction: snd.Fraction,
		}
	}
	return out
}

// FromPlan converts an in-process plan to wire form.
func FromPlan(p *core.Plan) wire.Plan {
	out := wire.Plan{
		Solver:         SolverName(p.Solver),
		CacheHit:       p.CacheHit,
		WarmStart:      p.WarmStart,
		CrashStart:     p.CrashStart,
		Replanned:      p.Replanned,
		ReplanFallback: p.ReplanFallback,
		ReBased:        p.ReBased,
	}
	if p.Result != nil {
		out.Optimal = p.Optimal
		out.Gap = p.Gap
		out.Objective = p.Objective
		out.Epochs = p.Epochs
		out.Tau = p.Tau
		out.Rounds = p.Rounds
		out.Windows = p.Windows
		out.SolveTimeMs = float64(p.SolveTime) / float64(time.Millisecond)
		out.Nodes = p.Nodes
		out.RootIterations = p.RootIterations
		out.NodeIterations = p.NodeIterations
		out.Refactorizations = p.Refactorizations
		out.FTUpdates = p.FTUpdates
		out.UpdateNnz = p.UpdateNnz
		out.Schedule = FromSchedule(p.Schedule)
	}
	return out
}

// ToPlan converts a wire plan back to the in-process form, rebinding
// the schedule to the given topology and demand.
func ToPlan(p wire.Plan, t *topo.Topology, d *collective.Demand) (*core.Plan, error) {
	solver, err := ParseSolver(p.Solver)
	if err != nil {
		return nil, err
	}
	return &core.Plan{
		Result: &core.Result{
			Schedule:         ToSchedule(p.Schedule, t, d),
			Objective:        p.Objective,
			Gap:              p.Gap,
			Optimal:          p.Optimal,
			SolveTime:        time.Duration(p.SolveTimeMs * float64(time.Millisecond)),
			Epochs:           p.Epochs,
			Tau:              p.Tau,
			Rounds:           p.Rounds,
			Windows:          p.Windows,
			Nodes:            p.Nodes,
			RootIterations:   p.RootIterations,
			NodeIterations:   p.NodeIterations,
			Refactorizations: p.Refactorizations,
			FTUpdates:        p.FTUpdates,
			UpdateNnz:        p.UpdateNnz,
			Reused:           p.CacheHit,
			WarmStarted:      p.WarmStart,
			CrashStarted:     p.CrashStart,
		},
		Solver:         solver,
		CacheHit:       p.CacheHit,
		WarmStart:      p.WarmStart,
		CrashStart:     p.CrashStart,
		Replanned:      p.Replanned,
		ReplanFallback: p.ReplanFallback,
		ReBased:        p.ReBased,
	}, nil
}

// FromStats converts in-process session counters to wire form. The
// locked v1 field replan_incremental_pivots has always mirrored
// replan_pivots; it is filled here so the in-process struct need not
// carry the duplicate.
func FromStats(s core.PlannerStats) wire.Stats {
	return wire.Stats{
		Requests:                 s.Requests,
		ScheduleReplays:          s.ScheduleReplays,
		WarmStartHits:            s.WarmStartHits,
		CrashStarts:              s.CrashStarts,
		ExactBasisHits:           s.ExactBasisHits,
		TauCacheHits:             s.TauCacheHits,
		EpochCacheHits:           s.EpochCacheHits,
		Replans:                  s.Replans,
		ReplanPivots:             s.ReplanPivots,
		ReplanIncrementalPivots:  s.ReplanPivots,
		ColdEstimatePivots:       s.ColdEstimatePivots,
		ReplanFallbacks:          s.ReplanFallbacks,
		ReplanFallbackStructural: s.ReplanFallbackStructural,
		ReplanFallbackBudget:     s.ReplanFallbackBudget,
		ReplanFallbackSour:       s.ReplanFallbackSour,
		ReplanFallbackNoModel:    s.ReplanFallbackNoModel,
		ReBases:                  s.ReBases,
	}
}

// ToStats converts wire counters back to the in-process form.
func ToStats(s wire.Stats) core.PlannerStats {
	return core.PlannerStats{
		Requests:                 s.Requests,
		ScheduleReplays:          s.ScheduleReplays,
		WarmStartHits:            s.WarmStartHits,
		CrashStarts:              s.CrashStarts,
		ExactBasisHits:           s.ExactBasisHits,
		TauCacheHits:             s.TauCacheHits,
		EpochCacheHits:           s.EpochCacheHits,
		Replans:                  s.Replans,
		ReplanPivots:             s.ReplanPivots,
		ColdEstimatePivots:       s.ColdEstimatePivots,
		ReplanFallbacks:          s.ReplanFallbacks,
		ReplanFallbackStructural: s.ReplanFallbackStructural,
		ReplanFallbackBudget:     s.ReplanFallbackBudget,
		ReplanFallbackSour:       s.ReplanFallbackSour,
		ReplanFallbackNoModel:    s.ReplanFallbackNoModel,
		ReBases:                  s.ReBases,
	}
}
