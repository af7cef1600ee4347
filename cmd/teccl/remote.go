package main

// remote.go is the CLI face of a running teccld daemon: subcommands
// that plan through the shared service instead of solving in-process.
// Sessions are keyed daemon-side by topology fingerprint, so repeated
// CLI invocations over one fabric hit the same session's caches —
// the CLI deliberately does not close its session on exit.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"teccl"
)

// runSubcommand dispatches "teccl <cmd> ..." for the daemon-backed
// subcommands; main falls through to the legacy flag interface when
// the first argument is a flag.
func runSubcommand(cmd string, args []string) {
	switch cmd {
	case "plan":
		cmdPlan(args)
	case "sessions":
		cmdSessions(args)
	case "stats":
		cmdStats(args)
	case "health":
		cmdHealth(args)
	default:
		fatal(fmt.Errorf("unknown subcommand %q (want plan, sessions, stats, or health)", cmd))
	}
}

// daemonAddr returns the daemon base URL: -daemon flag, else
// TECCLD_ADDR, else localhost.
func daemonFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("TECCLD_ADDR")
	if def == "" {
		def = "http://localhost:7447"
	}
	return fs.String("daemon", def, "teccld base URL (or $TECCLD_ADDR)")
}

func dial(addr string) *teccl.Client {
	c, err := teccl.Dial(addr, teccl.ClientOptions{})
	if err != nil {
		fatal(err)
	}
	return c
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("teccl plan", flag.ExitOnError)
	var (
		daemon     = daemonFlag(fs)
		topoSpec   = fs.String("topo", "dgx1", "topology: dgx1, ndv2:N, ndv2mini:N, dgx2:N, dgx2mini:N, internal1:N, internal2:N, ring:N, mesh:N, star:N")
		topoJSON   = fs.String("topo-json", "", "load topology from a JSON file instead of -topo")
		coll       = fs.String("coll", "allgather", "collective: allgather, alltoall, broadcast, scatter, gather, reducescatter")
		chunks     = fs.Int("chunks", 1, "chunks per GPU (allgather) or per destination (alltoall)")
		chunkBytes = fs.Float64("chunk-bytes", 25e3, "chunk size in bytes")
		solver     = fs.String("solver", "auto", "solver: auto, milp, lp, astar, horizon")
		epochs     = fs.Int("epochs", 0, "epoch horizon K (0 = estimate)")
		gap        = fs.Float64("gap", 0, "MILP early-stop optimality gap (e.g. 0.3)")
		timeout    = fs.Duration("timeout", 2*time.Minute, "solver time limit")
		quiet      = fs.Bool("q", false, "metrics only, no per-epoch schedule dump")
	)
	fs.Parse(args)

	t, err := buildTopology(*topoSpec, *topoJSON)
	if err != nil {
		fatal(err)
	}
	if err := t.Validate(); err != nil {
		fatal(err)
	}
	d, err := buildDemand(t, *coll, *chunks, *chunkBytes)
	if err != nil {
		fatal(err)
	}
	force := map[string]teccl.Solver{
		"auto": teccl.SolverAuto, "milp": teccl.SolverMILP,
		"lp": teccl.SolverLP, "astar": teccl.SolverAStar,
		"horizon": teccl.SolverHorizon,
	}[*solver]
	if force == teccl.SolverAuto && *solver != "auto" {
		fatal(fmt.Errorf("unknown solver %q (the daemon serves auto, milp, lp, astar, horizon)", *solver))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	planner := dial(*daemon).Planner(t)
	opt := teccl.Options{Epochs: *epochs, GapLimit: *gap, TimeLimit: *timeout}
	plan, err := planner.Plan(ctx, teccl.Request{Demand: d, Options: &opt, Solver: force})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("session: %s  solver: %s  optimal: %v  gap: %.1f%%  epochs: %d  tau: %.3g s\n",
		planner.SessionID(), plan.Solver, plan.Optimal, 100*plan.Gap, plan.Epochs, plan.Tau)
	if plan.CacheHit {
		fmt.Println("served from the session's schedule-replay cache")
	}
	sim, err := teccl.Simulate(plan.Schedule)
	if err != nil {
		fatal(fmt.Errorf("schedule failed simulation: %w", err))
	}
	fmt.Printf("solve time: %v\n", plan.SolveTime.Round(time.Millisecond))
	fmt.Printf("transfer time: %.3f us\n", sim.FinishTime*1e6)
	fmt.Printf("algorithmic bandwidth: %.3f GB/s\n", sim.AlgoBandwidth/1e9)
	if !*quiet {
		printSchedule(t, plan.Schedule)
	}
}

func cmdSessions(args []string) {
	fs := flag.NewFlagSet("teccl sessions", flag.ExitOnError)
	daemon := daemonFlag(fs)
	fs.Parse(args)
	sessions, err := dial(*daemon).Sessions(context.Background())
	if err != nil {
		fatal(err)
	}
	if len(sessions) == 0 {
		fmt.Println("no live sessions")
		return
	}
	fmt.Printf("%-6s %-14s %-16s %6s %6s %9s  %s\n",
		"ID", "TOPOLOGY", "FINGERPRINT", "NODES", "LINKS", "REQUESTS", "LAST USED")
	for _, s := range sessions {
		fmt.Printf("%-6s %-14s %-16s %6d %6d %9d  %s\n",
			s.ID, s.Topology, s.Fingerprint, s.NumNodes, s.NumLinks, s.Requests,
			time.UnixMilli(s.LastUsedMs).Format(time.RFC3339))
	}
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("teccl stats", flag.ExitOnError)
	daemon := daemonFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: teccl stats [-daemon URL] <session-id>"))
	}
	st, err := dial(*daemon).SessionStats(context.Background(), fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("requests:          %d\n", st.Requests)
	fmt.Printf("schedule replays:  %d\n", st.ScheduleReplays)
	fmt.Printf("warm-start hits:   %d\n", st.WarmStartHits)
	fmt.Printf("crash starts:      %d\n", st.CrashStarts)
	fmt.Printf("exact basis hits:  %d\n", st.ExactBasisHits)
	fmt.Printf("tau cache hits:    %d\n", st.TauCacheHits)
	fmt.Printf("epoch cache hits:  %d\n", st.EpochCacheHits)
	fmt.Printf("replans:           %d (%d fallbacks)\n", st.Replans, st.ReplanFallbacks)
}

func cmdHealth(args []string) {
	fs := flag.NewFlagSet("teccl health", flag.ExitOnError)
	daemon := daemonFlag(fs)
	fs.Parse(args)
	if err := dial(*daemon).Health(context.Background()); err != nil {
		fatal(err)
	}
	fmt.Println("ok")
}
