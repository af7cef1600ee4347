package topo

import "fmt"

// Capacities and latencies used by the paper's public topologies (§6 and
// Appendix H). GB/s here means 1e9 bytes per second.
const (
	GB = 1e9
	us = 1e-6

	// NDv2 / DGX1 (Figure 11).
	ndv2FastCap   = 50 * GB   // double NVLink
	ndv2SlowCap   = 25 * GB   // single NVLink
	ndv2NVAlpha   = 0.7 * us  // NVLink α
	ndv2IBCap     = 12.5 * GB // GPU <-> IB switch
	ndv2IBAlpha   = 1.3 * us
	dgx2NVCap     = 125 * GB // DGX2 GPU <-> NVSwitch (Figure 12)
	dgx2NVAlpha   = 0.35 * us
	dgx2XCap      = 12.5 * GB // DGX2 cross-chassis
	dgx2XAlpha    = 2.6 * us
	internalAlpha = 0.6 * us // Internal GPU-GPU α (§2, Figure 2 caption)
	internalSwA   = 0.75 * us
	internalCap   = 25 * GB   // synthetic stand-in, homogeneous (Fig. 8)
	internalSwCap = 12.5 * GB // synthetic stand-in
)

// dgx1Chassis adds one 8-GPU NVLink chassis (DGX1/NDv2 style: two quads of
// four GPUs, 16 bidirectional NVLinks = 32 directed edges) and returns the
// GPU IDs. Ring links within a quad are double NVLinks (50 GB/s), quad
// diagonals and cross-quad links are single (25 GB/s).
func dgx1Chassis(t *Topology, prefix string) []NodeID {
	g := make([]NodeID, 8)
	for i := range g {
		g[i] = t.AddNode(fmt.Sprintf("%sgpu%d", prefix, i), false)
	}
	type pair struct {
		a, b int
		fast bool
	}
	pairs := []pair{
		// Quad 0 ring (fast) and diagonals (slow).
		{0, 1, true}, {1, 3, true}, {3, 2, true}, {2, 0, true},
		{0, 3, false}, {1, 2, false},
		// Quad 1 ring and diagonals.
		{4, 5, true}, {5, 7, true}, {7, 6, true}, {6, 4, true},
		{4, 7, false}, {5, 6, false},
		// Cross-quad NVLinks.
		{0, 4, false}, {1, 5, false}, {2, 6, false}, {3, 7, false},
	}
	for _, p := range pairs {
		cap := ndv2SlowCap
		if p.fast {
			cap = ndv2FastCap
		}
		t.AddDuplex(g[p.a], g[p.b], cap, ndv2NVAlpha)
	}
	return g
}

// DGX1 returns a single 8-GPU DGX1 chassis (no switch), the topology SCCL
// evaluates on.
func DGX1() *Topology {
	t := New("dgx1")
	dgx1Chassis(t, "")
	return t
}

// NDv2 returns an Azure NDv2-style topology with the given number of
// 8-GPU chassis. With more than one chassis, GPU0 and GPU1 of each chassis
// connect to a shared InfiniBand switch (12.5 GB/s, α = 1.3 µs), matching
// Figure 11.
func NDv2(chassis int) *Topology {
	t := New(fmt.Sprintf("ndv2-%dc", chassis))
	var sw NodeID = -1
	if chassis > 1 {
		sw = t.AddNode("ibswitch", true)
	}
	for c := 0; c < chassis; c++ {
		g := dgx1Chassis(t, fmt.Sprintf("c%d-", c))
		if sw >= 0 {
			t.AddDuplex(g[0], sw, ndv2IBCap, ndv2IBAlpha)
			t.AddDuplex(g[1], sw, ndv2IBCap, ndv2IBAlpha)
		}
	}
	return t
}

// DGX2 returns a DGX2-style topology with the given number of chassis.
// Each chassis is 16 GPUs plus an NVSwitch (17 nodes, 32 directed edges,
// per Table 2); GPUs connect to the local NVSwitch at 125 GB/s with
// α = 0.35 µs. Across chassis, the first 8 GPUs of each chassis send to
// the last 8 GPUs of every other chassis over 12.5 GB/s links with
// α = 2.6 µs, matching Figure 12.
func DGX2(chassis int) *Topology {
	t := New(fmt.Sprintf("dgx2-%dc", chassis))
	gpus := make([][]NodeID, chassis)
	for c := 0; c < chassis; c++ {
		sw := t.AddNode(fmt.Sprintf("c%d-nvswitch", c), true)
		gpus[c] = make([]NodeID, 16)
		for i := 0; i < 16; i++ {
			g := t.AddNode(fmt.Sprintf("c%d-gpu%d", c, i), false)
			gpus[c][i] = g
			t.AddDuplex(g, sw, dgx2NVCap, dgx2NVAlpha)
		}
	}
	for a := 0; a < chassis; a++ {
		for b := 0; b < chassis; b++ {
			if a == b {
				continue
			}
			// Sender GPU i of chassis a feeds receiver GPU 8+i of b.
			for i := 0; i < 8; i++ {
				t.AddLink(gpus[a][i], gpus[b][8+i], dgx2XCap, dgx2XAlpha)
			}
		}
	}
	return t
}

// Internal1 returns the synthetic stand-in for the paper's proprietary
// "Internal 1" topology: 4 GPUs and 8 directed GPU-GPU edges per chassis
// (a bidirectional ring), every GPU also connected to a shared switch.
// Links are near-homogeneous, matching the Figure 8 observation. α values
// follow §2: 0.6 µs GPU-GPU, 0.75 µs GPU-switch.
func Internal1(chassis int) *Topology {
	t := New(fmt.Sprintf("internal1-%dc", chassis))
	sw := t.AddNode("switch", true)
	for c := 0; c < chassis; c++ {
		g := make([]NodeID, 4)
		for i := range g {
			g[i] = t.AddNode(fmt.Sprintf("c%d-gpu%d", c, i), false)
		}
		for i := range g {
			t.AddDuplex(g[i], g[(i+1)%4], internalCap, internalAlpha)
		}
		for i := range g {
			t.AddDuplex(g[i], sw, internalSwCap, internalSwA)
		}
	}
	return t
}

// Internal1NoAlpha is Internal1 with all α set to zero, used by the copy
// and buffer microbenchmarks (Figures 7 and 9).
func Internal1NoAlpha(chassis int) *Topology {
	t := Internal1(chassis)
	t.Name = t.Name + "-a0"
	for i := range t.links {
		t.links[i].Alpha = 0
	}
	return t
}

// Internal2 returns the synthetic stand-in for the paper's proprietary
// "Internal 2" topology: 2 GPUs and 2 directed GPU-GPU edges per chassis
// (one bidirectional pair), both GPUs connected to a shared switch.
func Internal2(chassis int) *Topology {
	t := New(fmt.Sprintf("internal2-%dc", chassis))
	sw := t.AddNode("switch", true)
	for c := 0; c < chassis; c++ {
		a := t.AddNode(fmt.Sprintf("c%d-gpu0", c), false)
		b := t.AddNode(fmt.Sprintf("c%d-gpu1", c), false)
		t.AddDuplex(a, b, internalCap, internalAlpha)
		t.AddDuplex(a, sw, internalSwCap, internalSwA)
		t.AddDuplex(b, sw, internalSwCap, internalSwA)
	}
	return t
}

// Ring returns n GPUs in a bidirectional ring.
func Ring(n int, capacity, alpha float64) *Topology {
	t := New(fmt.Sprintf("ring-%d", n))
	g := make([]NodeID, n)
	for i := range g {
		g[i] = t.AddNode(fmt.Sprintf("gpu%d", i), false)
	}
	for i := range g {
		t.AddDuplex(g[i], g[(i+1)%n], capacity, alpha)
	}
	return t
}

// Line returns n GPUs in a bidirectional path.
func Line(n int, capacity, alpha float64) *Topology {
	t := New(fmt.Sprintf("line-%d", n))
	g := make([]NodeID, n)
	for i := range g {
		g[i] = t.AddNode(fmt.Sprintf("gpu%d", i), false)
		if i > 0 {
			t.AddDuplex(g[i-1], g[i], capacity, alpha)
		}
	}
	return t
}

// FullMesh returns n fully connected GPUs.
func FullMesh(n int, capacity, alpha float64) *Topology {
	t := New(fmt.Sprintf("mesh-%d", n))
	g := make([]NodeID, n)
	for i := range g {
		g[i] = t.AddNode(fmt.Sprintf("gpu%d", i), false)
	}
	for i := range g {
		for j := range g {
			if i != j {
				t.AddLink(g[i], g[j], capacity, alpha)
			}
		}
	}
	return t
}

// Star returns n GPUs all connected through one copy-capable switch.
func Star(n int, capacity, alpha float64) *Topology {
	t := New(fmt.Sprintf("star-%d", n))
	sw := t.AddNode("switch", true)
	for i := 0; i < n; i++ {
		g := t.AddNode(fmt.Sprintf("gpu%d", i), false)
		t.AddDuplex(g, sw, capacity, alpha)
	}
	return t
}

// ndv2MiniChassis adds a 4-GPU quad (ring fast links + diagonals) and
// returns the GPU IDs.
func ndv2MiniChassis(t *Topology, prefix string) []NodeID {
	g := make([]NodeID, 4)
	for i := range g {
		g[i] = t.AddNode(fmt.Sprintf("%sgpu%d", prefix, i), false)
	}
	for i := range g {
		t.AddDuplex(g[i], g[(i+1)%4], ndv2FastCap, ndv2NVAlpha)
	}
	t.AddDuplex(g[0], g[2], ndv2SlowCap, ndv2NVAlpha)
	t.AddDuplex(g[1], g[3], ndv2SlowCap, ndv2NVAlpha)
	return g
}

// NDv2Mini is a laptop-scale stand-in for NDv2: the same hierarchical
// structure (fast NVLink quad per chassis, two GPUs per chassis uplinked
// to a shared InfiniBand switch with the NDv2 α and capacity) with 4 GPUs
// per chassis instead of 8. Used where the solver substrate cannot reach
// the full 8-GPU-per-chassis scale.
func NDv2Mini(chassis int) *Topology {
	t := New(fmt.Sprintf("ndv2mini-%dc", chassis))
	var sw NodeID = -1
	if chassis > 1 {
		sw = t.AddNode("ibswitch", true)
	}
	for c := 0; c < chassis; c++ {
		g := ndv2MiniChassis(t, fmt.Sprintf("c%d-", c))
		if sw >= 0 {
			t.AddDuplex(g[0], sw, ndv2IBCap, ndv2IBAlpha)
			t.AddDuplex(g[1], sw, ndv2IBCap, ndv2IBAlpha)
		}
	}
	return t
}

// DGX2Mini is a laptop-scale stand-in for DGX2: per chassis an NVSwitch
// with 4 GPUs at DGX2 NVLink speed, and cross-chassis links from the
// first 2 GPUs of each chassis to the last 2 of every other chassis at
// DGX2 cross-chassis speed (Figure 12's structure at 1/4 scale).
func DGX2Mini(chassis int) *Topology {
	t := New(fmt.Sprintf("dgx2mini-%dc", chassis))
	gpus := make([][]NodeID, chassis)
	for c := 0; c < chassis; c++ {
		sw := t.AddNode(fmt.Sprintf("c%d-nvswitch", c), true)
		gpus[c] = make([]NodeID, 4)
		for i := 0; i < 4; i++ {
			g := t.AddNode(fmt.Sprintf("c%d-gpu%d", c, i), false)
			gpus[c][i] = g
			t.AddDuplex(g, sw, dgx2NVCap, dgx2NVAlpha)
		}
	}
	for a := 0; a < chassis; a++ {
		for b := 0; b < chassis; b++ {
			if a == b {
				continue
			}
			for i := 0; i < 2; i++ {
				t.AddLink(gpus[a][i], gpus[b][2+i], dgx2XCap, dgx2XAlpha)
			}
		}
	}
	return t
}
