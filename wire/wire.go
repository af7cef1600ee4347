// Package wire defines the versioned JSON wire schema (v1) of the
// teccld planning service: the request, plan, delta, and stats types
// that cross the HTTP boundary between a teccld daemon and its clients.
//
// The schema is a deliberate contract, shared by the daemon
// (cmd/teccld), the Go client (teccl.Dial / teccl.Client), and the CLI
// (cmd/teccl): every type carries explicit JSON tags, and two
// independent guards pin those tags against accidental renames — the
// golden round-trip tests in this package, and the tecclvet wirelock
// analyzer, which diffs every exported struct here against the
// committed schema.lock.json. A field rename or removal is an API break
// and must bump the version, not slip through a refactor; additive
// changes regenerate the lock (see the go:generate directive below).
//
// The package imports only the standard library (machine-enforced by
// the tecclvet importrules analyzer): wire types mirror the in-process
// types but stay independent of them, so the schema cannot drift when
// an internal type changes shape. Only serializable state crosses the
// wire (function-valued options like Progress and LinkCapacity do not;
// the multi-tenant Priority function is carried as explicitly sampled
// per-triple weights, see Options.Priority). The conversion helpers —
// which validate ranges on the way in so a malformed request fails at
// decode time rather than inside a solver — live in
// teccl/internal/wireconv.
package wire

//go:generate go run teccl/cmd/tecclvet -write-wire-lock

// Version is the wire-schema version this package implements. Responses
// echo it in their "api" field; clients reject a mismatch.
const Version = "v1"

// Want is one demanded triple: dst wants chunk of src.
type Want struct {
	Src   int `json:"src"`
	Chunk int `json:"chunk"`
	Dst   int `json:"dst"`
}

// Demand is the wire form of a collective demand matrix: dimensions,
// chunk size, and the demanded (src, chunk, dst) triples.
type Demand struct {
	NumNodes   int     `json:"num_nodes"`
	NumChunks  int     `json:"num_chunks"`
	ChunkBytes float64 `json:"chunk_bytes"`
	Wants      []Want  `json:"wants"`
}

// PriorityWeight is one sampled multi-tenant priority weight: the
// delivery reward of the (src, chunk, dst) triple is scaled by Weight.
// Unlisted triples keep weight 1. The in-process Priority function is
// sampled over the request's demanded triples by the client, since a
// function value cannot cross the wire.
type PriorityWeight struct {
	Src    int     `json:"src"`
	Chunk  int     `json:"chunk"`
	Dst    int     `json:"dst"`
	Weight float64 `json:"weight"`
}

// Options is the serializable subset of the solve options. Zero values
// mean the paper's defaults, exactly as in the in-process Options.
// Function-valued options do not cross the wire: LinkCapacity is
// rejected by the client, Progress is daemon-side only (see /metrics),
// and Priority is carried as sampled per-triple weights.
type Options struct {
	Epochs            int              `json:"epochs,omitempty"`
	EpochMode         string           `json:"epoch_mode,omitempty"` // "", "fastest", "slowest"
	Tau               float64          `json:"tau,omitempty"`
	EpochMultiplier   float64          `json:"epoch_multiplier,omitempty"`
	SwitchMode        string           `json:"switch_mode,omitempty"` // "", "copy", "nocopy"
	NoBuffers         bool             `json:"no_buffers,omitempty"`
	BufferLimitChunks int              `json:"buffer_limit_chunks,omitempty"`
	GapLimit          float64          `json:"gap_limit,omitempty"`
	TimeLimitMs       int64            `json:"time_limit_ms,omitempty"`
	MinimizeMakespan  bool             `json:"minimize_makespan,omitempty"`
	Crash             string           `json:"crash,omitempty"` // "", "auto", "all", "off"
	Workers           int              `json:"workers,omitempty"`
	RoundEpochs       int              `json:"round_epochs,omitempty"`
	MaxRounds         int              `json:"max_rounds,omitempty"`
	Priority          []PriorityWeight `json:"priority,omitempty"`

	// Rolling-horizon fields (additive in v1; zero values defer to the
	// solver's auto-sizing, exactly as in the in-process Options).
	HorizonWindow       int   `json:"horizon_window,omitempty"`
	HorizonOverlap      int   `json:"horizon_overlap,omitempty"`
	HorizonCertifyMs    int64 `json:"horizon_certify_ms,omitempty"`
	AutoEpochMultiplier bool  `json:"auto_epoch_multiplier,omitempty"`
	HorizonCellBudget   int   `json:"horizon_cell_budget,omitempty"`
}

// Node is the wire form of one topology node. It mirrors the JSON shape
// of the in-process topo.Node byte for byte; the wirelock lock and the
// golden tests pin both against drift.
type Node struct {
	Name   string `json:"name"`
	Switch bool   `json:"switch,omitempty"`
}

// Link is the wire form of one unidirectional link. Capacity is in
// bytes per second; Alpha is the fixed per-transfer latency in seconds.
// Src and Dst are node IDs: indices into the topology's node list.
type Link struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Capacity float64 `json:"capacity"`
	Alpha    float64 `json:"alpha"`
}

// Topology is the wire form of a full topology snapshot. Down lists the
// IDs of links taken down by churn; a down link keeps its ID and
// metadata so deltas and schedules stated against the original IDs stay
// meaningful.
type Topology struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Links []Link `json:"links"`
	Down  []int  `json:"down,omitempty"`
}

// LinkScale is one multiplicative link edit of a delta; zero-valued
// multiplier fields mean "leave unchanged".
type LinkScale struct {
	Link     int     `json:"link"`
	Capacity float64 `json:"capacity,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
}

// Pair names one (source, destination) demand pair.
type Pair struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Delta is the wire form of one step of churn for /v1/replan.
type Delta struct {
	LinksDown []int       `json:"links_down,omitempty"`
	NodesDown []int       `json:"nodes_down,omitempty"`
	Scale     []LinkScale `json:"scale,omitempty"`
	AddNodes  []Node      `json:"add_nodes,omitempty"`
	AddLinks  []Link      `json:"add_links,omitempty"`
	DropPairs []Pair      `json:"drop_pairs,omitempty"`
	AddDemand *Demand     `json:"add_demand,omitempty"`
}

// Send is one chunk transmission of a wire schedule.
type Send struct {
	Src      int     `json:"src"`
	Chunk    int     `json:"chunk"`
	Link     int     `json:"link"`
	Epoch    int     `json:"epoch"`
	Fraction float64 `json:"fraction"`
}

// Schedule is the wire form of an executable schedule. The topology and
// demand it binds to travel separately (the session's), so the schedule
// itself stays compact.
type Schedule struct {
	Tau            float64 `json:"tau"`
	NumEpochs      int     `json:"num_epochs"`
	AllowCopy      bool    `json:"allow_copy,omitempty"`
	EpochsPerChunk []int   `json:"epochs_per_chunk,omitempty"`
	Sends          []Send  `json:"sends"`
}

// Plan is the wire form of a solved request: provenance, result
// metrics, solver-effort counters, and the schedule.
type Plan struct {
	Solver         string  `json:"solver"`
	Optimal        bool    `json:"optimal"`
	Gap            float64 `json:"gap"`
	Objective      float64 `json:"objective"`
	Epochs         int     `json:"epochs"`
	Tau            float64 `json:"tau"`
	Rounds         int     `json:"rounds,omitempty"`
	Windows        int     `json:"windows,omitempty"`
	SolveTimeMs    float64 `json:"solve_time_ms"`
	CacheHit       bool    `json:"cache_hit,omitempty"`
	WarmStart      bool    `json:"warm_start,omitempty"`
	CrashStart     bool    `json:"crash_start,omitempty"`
	Replanned      bool    `json:"replanned,omitempty"`
	ReplanFallback bool    `json:"replan_fallback,omitempty"`
	ReBased        bool    `json:"rebased,omitempty"`

	Nodes            int `json:"nodes,omitempty"`
	RootIterations   int `json:"root_iterations,omitempty"`
	NodeIterations   int `json:"node_iterations,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	FTUpdates        int `json:"ft_updates,omitempty"`
	UpdateNnz        int `json:"update_nnz,omitempty"`

	Schedule *Schedule `json:"schedule,omitempty"`
}

// Stats is the wire form of a session's cumulative counters. The field
// set mirrors PlannerStats one for one; the golden test pins the tags.
// replan_resumes came last, after v1's first release: a daemon that
// predates it sends none, which decodes as zero.
// rebases (like Plan's rebased) is always zero: the adaptive re-basing
// it counted is gone, and the field stays for v1 clients.
type Stats struct {
	Requests                 int `json:"requests"`
	ScheduleReplays          int `json:"schedule_replays"`
	WarmStartHits            int `json:"warm_start_hits"`
	CrashStarts              int `json:"crash_starts"`
	ExactBasisHits           int `json:"exact_basis_hits"`
	TauCacheHits             int `json:"tau_cache_hits"`
	EpochCacheHits           int `json:"epoch_cache_hits"`
	Replans                  int `json:"replans"`
	ReplanPivots             int `json:"replan_pivots"`
	ReplanIncrementalPivots  int `json:"replan_incremental_pivots"`
	ColdEstimatePivots       int `json:"cold_estimate_pivots"`
	ReplanFallbacks          int `json:"replan_fallbacks"`
	ReplanFallbackStructural int `json:"replan_fallback_structural"`
	ReplanFallbackBudget     int `json:"replan_fallback_budget"`
	ReplanFallbackSour       int `json:"replan_fallback_sour"`
	ReplanFallbackNoModel    int `json:"replan_fallback_no_model"`
	ReBases                  int `json:"rebases"`
	ReplanResumes            int `json:"replan_resumes"`
}

// PlanRequest is the body of POST /v1/plan. Exactly one of Topology and
// SessionID identifies the session: a topology is fingerprinted and
// mapped to a (possibly new) session; a session ID reuses one directly.
type PlanRequest struct {
	Topology  *Topology `json:"topology,omitempty"`
	SessionID string    `json:"session_id,omitempty"`
	Demand    Demand    `json:"demand"`
	Options   *Options  `json:"options,omitempty"`
	Solver    string    `json:"solver,omitempty"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	API       string `json:"api"`
	SessionID string `json:"session_id"`
	Plan      Plan   `json:"plan"`
}

// ReplanRequest is the body of POST /v1/replan: session-scoped churn.
type ReplanRequest struct {
	SessionID string `json:"session_id"`
	Delta     Delta  `json:"delta"`
}

// ReplanResponse is the body of a successful POST /v1/replan. It
// carries the session's post-churn topology and demand snapshots, so
// the client can rebind the returned schedule (and later ones) without
// replaying the delta locally.
type ReplanResponse struct {
	API       string    `json:"api"`
	SessionID string    `json:"session_id"`
	Plan      Plan      `json:"plan"`
	Topology  *Topology `json:"topology,omitempty"`
	Demand    *Demand   `json:"demand,omitempty"`
}

// SessionInfo is one session of GET /v1/sessions.
type SessionInfo struct {
	ID          string `json:"id"`
	Topology    string `json:"topology"`
	Fingerprint string `json:"fingerprint"`
	NumNodes    int    `json:"num_nodes"`
	NumLinks    int    `json:"num_links"`
	CreatedMs   int64  `json:"created_unix_ms"`
	LastUsedMs  int64  `json:"last_used_unix_ms"`
	Requests    int64  `json:"requests"`
}

// SessionsResponse is the body of GET /v1/sessions.
type SessionsResponse struct {
	API      string        `json:"api"`
	Sessions []SessionInfo `json:"sessions"`
}

// StatsResponse is the body of GET /v1/sessions/{id}/stats.
type StatsResponse struct {
	API       string `json:"api"`
	SessionID string `json:"session_id"`
	Stats     Stats  `json:"stats"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
	Code  int    `json:"code,omitempty"`
}
