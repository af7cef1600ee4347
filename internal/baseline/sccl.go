package baseline

import (
	"context"
	"fmt"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// SCCLOptions tunes the SCCL-like synthesizer.
type SCCLOptions struct {
	// MaxSteps bounds the least-steps search. Default 8.
	MaxSteps int
	// MaxRounds bounds per-step link multiplicity (SCCL's rounds-per-step).
	// Default 3.
	MaxRounds int
	// Steps/Rounds pin an exact instance (SCCL's `instance` mode) instead
	// of searching; both must be > 0 to take effect.
	Steps, Rounds int
	// TimeLimit bounds the whole synthesis (shared across the least-steps
	// search); individual feasibility solves get the remaining budget.
	TimeLimit time.Duration
}

// SCCLResult is the outcome of the SCCL-like synthesizer.
type SCCLResult struct {
	Schedule  *schedule.Schedule
	Steps     int
	Rounds    int // chunks per link per step in the winning synthesis
	SolveTime time.Duration
	Feasible  bool
	// TransferTime is the synchronous-step execution estimate: each step
	// costs the worst per-link serialization plus one α barrier.
	TransferTime float64
}

// SolveSCCL synthesizes a collective schedule under SCCL's synchronous-
// step model: all sends of step t complete (including their α) before any
// send of step t+1 starts. This is the barrier the paper contrasts with
// TE-CCL's pipelining (§6.1, Table 3): with one chunk the barrier costs
// nothing, with more chunks it pays α once per step per chunk wave.
// Least-steps search: smallest step count, then smallest rounds-per-step,
// that satisfies the demand.
func SolveSCCL(t *topo.Topology, d *collective.Demand, opt SCCLOptions) *SCCLResult {
	start := time.Now()
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 8
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 3
	}
	res := &SCCLResult{}

	ctx := context.TODO() // SolveSCCL takes no caller context
	if opt.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opt.TimeLimit))
		defer cancel()
	}
	try := func(steps, rounds int) *schedule.Schedule {
		if ctx.Err() != nil {
			return nil
		}
		s, err := synthesizeSteps(ctx, t, d, steps, rounds)
		if err != nil {
			return nil
		}
		return s
	}

	if opt.Steps > 0 && opt.Rounds > 0 {
		if s := try(opt.Steps, opt.Rounds); s != nil {
			res.Schedule, res.Steps, res.Rounds, res.Feasible = s, opt.Steps, opt.Rounds, true
		}
	} else {
	search:
		for steps := 1; steps <= maxSteps; steps++ {
			for rounds := 1; rounds <= maxRounds; rounds++ {
				if ctx.Err() != nil {
					break search
				}
				if s := try(steps, rounds); s != nil {
					res.Schedule, res.Steps, res.Rounds, res.Feasible = s, steps, rounds, true
					break search
				}
			}
		}
	}
	res.SolveTime = time.Since(start)
	if res.Feasible {
		res.TransferTime = scclTransferTime(res.Schedule, res.Steps, t)
	}
	return res
}

// alphaZeroClone returns a copy of t with every α set to zero. Under the
// barrier model α is paid per step, outside the epoch timeline, so the
// step-indexed schedule validates against an α-free topology.
func alphaZeroClone(t *topo.Topology) *topo.Topology {
	out := topo.New(t.Name + "-steps")
	for n := 0; n < t.NumNodes(); n++ {
		nd := t.Node(topo.NodeID(n))
		out.AddNode(nd.Name, nd.Switch)
	}
	for l := 0; l < t.NumLinks(); l++ {
		lk := t.Link(topo.LinkID(l))
		out.AddLink(lk.Src, lk.Dst, lk.Capacity, 0)
	}
	return out
}

// synthesizeSteps solves the barrier-model feasibility MILP under ctx:
// within `steps` synchronous steps, each link carrying at most `rounds`
// chunks per step, deliver every demand. Copy at GPUs is allowed (SCCL's model
// permits multicasting from a buffer); switches are treated like GPUs
// here because SCCL targets switchless single-chassis boxes — on switched
// topologies this is generous to SCCL.
func synthesizeSteps(ctx context.Context, t *topo.Topology, d *collective.Demand, steps, rounds int) (*schedule.Schedule, error) {
	m := buildSCCL(t, d, steps, rounds)
	if len(m.comms) == 0 {
		return &schedule.Schedule{Topo: t, Demand: d, Tau: 1, NumEpochs: 0, AllowCopy: true}, nil
	}
	msol := milp.Solve(&milp.Problem{LP: m.p, Integer: m.ints}, milp.Options{Context: ctx})
	if msol.Status != milp.StatusOptimal && msol.Status != milp.StatusFeasible {
		return nil, fmt.Errorf("baseline: SCCL %d-step synthesis: %v", steps, msol.Status)
	}

	// Extract with steps mapped onto epochs 1:1. The τ here is only a
	// label; scclTransferTime computes the true barrier cost.
	var sends []schedule.Send
	for ci, cm := range m.comms {
		for l := 0; l < t.NumLinks(); l++ {
			for k := 0; k < steps; k++ {
				if msol.X[m.fvar[ci][l][k]] > 0.5 {
					sends = append(sends, schedule.Send{
						Src: cm.src, Chunk: cm.chunk,
						Link: topo.LinkID(l), Epoch: k, Fraction: 1,
					})
				}
			}
		}
	}
	// SCCL schedules are step-indexed: one epoch = one synchronous step,
	// with α paid per step outside the timeline. Validating and pruning
	// against an α-zero topology makes the step semantics line up with
	// the epoch machinery; scclTransferTime is the real execution model.
	s := &schedule.Schedule{
		Topo: alphaZeroClone(t), Demand: d,
		Tau:       barrierTau(t, d) * float64(rounds),
		NumEpochs: steps, Sends: sends, AllowCopy: true,
	}
	s = s.Prune()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: SCCL synthesis invalid: %w", err)
	}
	return s, nil
}

// scclComm is one (source, chunk) commodity of the barrier model and the
// destinations that want it.
type scclComm struct {
	src, chunk int
	dests      []int
}

// scclModel is the barrier-model feasibility MILP of one (steps, rounds)
// instance, with the commodities and the F[ci][l][s] send columns a
// solution is read back through. p is nil when nothing is demanded.
type scclModel struct {
	p     *lp.Problem
	ints  []lp.VarID
	comms []scclComm
	fvar  [][][]int32
}

// buildSCCL states the barrier-model MILP synthesizeSteps solves.
func buildSCCL(t *topo.Topology, d *collective.Demand, steps, rounds int) *scclModel {
	var comms []scclComm
	for s := 0; s < d.NumNodes(); s++ {
		for c := 0; c < d.NumChunks(); c++ {
			if !d.SourceHasChunk(s, c) {
				continue
			}
			cm := scclComm{src: s, chunk: c}
			for dst := 0; dst < d.NumNodes(); dst++ {
				if d.Wants(s, c, dst) {
					cm.dests = append(cm.dests, dst)
				}
			}
			comms = append(comms, cm)
		}
	}
	if len(comms) == 0 {
		return &scclModel{}
	}

	p := lp.NewProblem(lp.Maximize)
	var ints []lp.VarID
	nL := t.NumLinks()
	nN := t.NumNodes()
	// F[ci][l][s], B[ci][n][s] with barrier semantics: everything sent in
	// step s has arrived by the start of step s+1.
	fvar := make([][][]int32, len(comms))
	bvar := make([][][]int32, len(comms))
	const no = int32(-1)
	for ci := range comms {
		fvar[ci] = make([][]int32, nL)
		for l := 0; l < nL; l++ {
			col := make([]int32, steps)
			for k := range col {
				col[k] = no
			}
			for k := 0; k < steps; k++ {
				v := p.AddVar("", 0, 1, 0)
				col[k] = int32(v)
				ints = append(ints, v)
			}
			fvar[ci][l] = col
		}
		bvar[ci] = make([][]int32, nN)
		for n := 0; n < nN; n++ {
			col := make([]int32, steps+1)
			for k := range col {
				col[k] = no
			}
			if n != comms[ci].src {
				for k := 1; k <= steps; k++ {
					v := p.AddVar("", 0, 1, 0)
					col[k] = int32(v)
					// Earlier delivery earns more, like SCCL's preference
					// for fewer steps once feasible.
					p.SetObj(v, 1/float64(k))
				}
			}
			bvar[ci][n] = col
		}
	}

	for ci, cm := range comms {
		// Buffer recurrence: B_{s+1} = B_s + arrivals(s), B_0 = 0 for
		// non-sources; source is the constant 1.
		for n := 0; n < nN; n++ {
			if n == cm.src {
				continue
			}
			for k := 1; k <= steps; k++ {
				terms := []lp.Term{{Var: lp.VarID(bvar[ci][n][k]), Coeff: 1}}
				if k > 1 {
					terms = append(terms, lp.Term{Var: lp.VarID(bvar[ci][n][k-1]), Coeff: -1})
				}
				for _, lid := range t.In(topo.NodeID(n)) {
					terms = append(terms, lp.Term{Var: lp.VarID(fvar[ci][int(lid)][k-1]), Coeff: -1})
				}
				p.AddRow(terms, lp.EQ, 0)
			}
			// Destination completion.
			for _, dd := range cm.dests {
				if dd == n {
					p.SetBounds(lp.VarID(bvar[ci][n][steps]), 1, 1)
				}
			}
		}
		// Sending requires holding: F at step k <= B_k (source: always 1).
		for l := 0; l < nL; l++ {
			srcNode := int(t.Link(topo.LinkID(l)).Src)
			if srcNode == cm.src {
				continue
			}
			for k := 0; k < steps; k++ {
				if k == 0 {
					p.SetBounds(lp.VarID(fvar[ci][l][0]), 0, 0)
					continue
				}
				p.AddRow([]lp.Term{
					{Var: lp.VarID(fvar[ci][l][k]), Coeff: 1},
					{Var: lp.VarID(bvar[ci][srcNode][k]), Coeff: -1},
				}, lp.LE, 0)
			}
		}
	}

	// Per-step link multiplicity (SCCL's rounds).
	for l := 0; l < nL; l++ {
		for k := 0; k < steps; k++ {
			var row []lp.Term
			for ci := range comms {
				row = append(row, lp.Term{Var: lp.VarID(fvar[ci][l][k]), Coeff: 1})
			}
			p.AddRow(row, lp.LE, float64(rounds))
		}
	}

	return &scclModel{p: p, ints: ints, comms: comms, fvar: fvar}
}

// barrierTau is the duration of one synchronous step's transmission wave:
// one chunk on the slowest link plus the worst α.
func barrierTau(t *topo.Topology, d *collective.Demand) float64 {
	return d.ChunkBytes/t.MinCapacity() + t.MaxAlpha()
}

// scclTransferTime estimates the synchronous execution: per step, every
// link finishes its chunks and the α barrier passes before the next step.
// The real topology supplies the α values (the schedule's own topology is
// the α-zero step clone).
func scclTransferTime(s *schedule.Schedule, steps int, t *topo.Topology) float64 {
	total := 0.0
	for k := 0; k < steps; k++ {
		perLink := map[topo.LinkID]float64{}
		stepMax := 0.0
		used := false
		for _, snd := range s.Sends {
			if snd.Epoch != k {
				continue
			}
			used = true
			perLink[snd.Link] += snd.Fraction * s.Demand.ChunkBytes / t.Link(snd.Link).Capacity
			cost := perLink[snd.Link] + t.Link(snd.Link).Alpha
			if cost > stepMax {
				stepMax = cost
			}
		}
		if used {
			total += stepMax
		}
	}
	return total
}
