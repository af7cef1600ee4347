// Package collective models collective-communication demands: which
// destination wants which chunk from which source, the D_{s,c,d} demand
// function of the TE-CCL formulation (Table 1). Builders cover the
// standard collectives (ALLGATHER, ALLTOALL, BROADCAST, SCATTER, GATHER,
// REDUCESCATTER) plus multi-tenant sums (§5).
package collective

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
)

// Demand is a demand matrix over n nodes with up to c chunks per source.
// Node indexes refer to topology node IDs; switches simply never appear as
// sources or destinations. The zero value is unusable; use New.
type Demand struct {
	n, c int
	want []bool // index: (src*c + chunk)*n + dst

	// ChunkBytes is the size of one chunk in bytes.
	ChunkBytes float64
}

// New returns an empty demand over numNodes nodes with chunksPerSource
// chunk slots per source and the given chunk size in bytes.
func New(numNodes, chunksPerSource int, chunkBytes float64) *Demand {
	if numNodes <= 0 || chunksPerSource <= 0 {
		panic(fmt.Sprintf("collective: bad dimensions %d nodes, %d chunks", numNodes, chunksPerSource))
	}
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("collective: bad chunk size %g", chunkBytes))
	}
	return &Demand{
		n:          numNodes,
		c:          chunksPerSource,
		want:       make([]bool, numNodes*chunksPerSource*numNodes),
		ChunkBytes: chunkBytes,
	}
}

// NumNodes reports the node-space size.
func (d *Demand) NumNodes() int { return d.n }

// NumChunks reports the chunk slots per source.
func (d *Demand) NumChunks() int { return d.c }

func (d *Demand) idx(src, chunk, dst int) int {
	if src < 0 || src >= d.n || dst < 0 || dst >= d.n || chunk < 0 || chunk >= d.c {
		panic(fmt.Sprintf("collective: index (%d,%d,%d) out of range (%d nodes, %d chunks)",
			src, chunk, dst, d.n, d.c))
	}
	return (src*d.c+chunk)*d.n + dst
}

// Set marks that dst wants chunk of src.
func (d *Demand) Set(src, chunk, dst int) {
	if src == dst {
		return // a node always has its own chunks
	}
	d.want[d.idx(src, chunk, dst)] = true
}

// Wants reports whether dst wants chunk of src.
func (d *Demand) Wants(src, chunk, dst int) bool {
	return d.want[d.idx(src, chunk, dst)]
}

// Count returns the number of (src, chunk, dst) triples demanded.
func (d *Demand) Count() int {
	total := 0
	for _, w := range d.want {
		if w {
			total++
		}
	}
	return total
}

// SourceHasChunk reports whether any destination wants chunk of src, i.e.
// whether the chunk exists at the source at all (used to initialize
// source buffers: B_{n,n,0,c} = max_d D_{n,d,c}).
func (d *Demand) SourceHasChunk(src, chunk int) bool {
	base := (src*d.c + chunk) * d.n
	for dst := 0; dst < d.n; dst++ {
		if d.want[base+dst] {
			return true
		}
	}
	return false
}

// DestWantsFromSource returns the chunk IDs of src that dst wants.
func (d *Demand) DestWantsFromSource(src, dst int) []int {
	var out []int
	for c := 0; c < d.c; c++ {
		if d.want[d.idx(src, c, dst)] {
			out = append(out, c)
		}
	}
	return out
}

// OutputBufferBytes returns the bytes node dst receives when the demand is
// satisfied — TACCL's "output buffer size" metric.
func (d *Demand) OutputBufferBytes(dst int) float64 {
	count := 0
	for src := 0; src < d.n; src++ {
		for c := 0; c < d.c; c++ {
			if d.want[d.idx(src, c, dst)] {
				count++
			}
		}
	}
	return float64(count) * d.ChunkBytes
}

// MaxOutputBufferBytes returns the largest output buffer over all nodes.
func (d *Demand) MaxOutputBufferBytes() float64 {
	max := 0.0
	for dst := 0; dst < d.n; dst++ {
		if b := d.OutputBufferBytes(dst); b > max {
			max = b
		}
	}
	return max
}

// TotalBytes returns the total demanded bytes summed over destinations.
func (d *Demand) TotalBytes() float64 {
	return float64(d.Count()) * d.ChunkBytes
}

// Or merges another demand into d (multi-tenant modeling per §5: the
// multi-tenant demand is the union of tenant demands). Panics if shapes
// or chunk sizes differ.
func (d *Demand) Or(other *Demand) {
	if d.n != other.n || d.c != other.c || d.ChunkBytes != other.ChunkBytes {
		panic("collective: demand shape mismatch in Or")
	}
	for i, w := range other.want {
		if w {
			d.want[i] = true
		}
	}
}

// Clone returns a deep copy.
func (d *Demand) Clone() *Demand {
	out := New(d.n, d.c, d.ChunkBytes)
	copy(out.want, d.want)
	return out
}

// WithNodes returns a copy of d resized to numNodes nodes (numNodes ≥
// NumNodes()); every existing (src, chunk, dst) want is preserved at the
// same coordinates. Topology growth uses it so an incumbent demand can
// follow its session onto a grown node space: new nodes start with no
// demand, which a subsequent AddDemand delta then populates.
func (d *Demand) WithNodes(numNodes int) *Demand {
	if numNodes < d.n {
		panic("collective: WithNodes cannot shrink a demand")
	}
	if numNodes == d.n {
		return d.Clone()
	}
	out := New(numNodes, d.c, d.ChunkBytes)
	for s := 0; s < d.n; s++ {
		for c := 0; c < d.c; c++ {
			for dst := 0; dst < d.n; dst++ {
				if d.want[d.idx(s, c, dst)] {
					out.want[out.idx(s, c, dst)] = true
				}
			}
		}
	}
	return out
}

// DropPair removes every demand from src to dst: dst no longer wants any
// chunk of src. The replanning layer uses it for demand churn — a tenant
// leaving, or traffic to/from a failed node.
func (d *Demand) DropPair(src, dst int) {
	for c := 0; c < d.c; c++ {
		d.want[d.idx(src, c, dst)] = false
	}
}

// DropNode removes every demand touching node n, in either role: n stops
// wanting anything, and nothing wants n's chunks. Node churn uses it so a
// failed GPU's traffic leaves the demand with the node.
func (d *Demand) DropNode(n int) {
	for s := 0; s < d.n; s++ {
		d.DropPair(s, n)
		d.DropPair(n, s)
	}
}

// fpSeed makes Fingerprint comparable across demands within one process
// — the same convention as lp.Problem.Fingerprint, which is all the
// session caches keying on it need.
var fpSeed = maphash.MakeSeed()

// Fingerprint returns a hash of the demand's full content — dimensions,
// chunk size (bit pattern), and the want set. Two demands with equal
// fingerprints are almost certainly identical; session caches use it to
// key per-demand derived state (e.g. epoch estimates) without holding
// the demand itself.
func (d *Demand) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(d.n))
	writeU64(uint64(d.c))
	writeU64(math.Float64bits(d.ChunkBytes))
	var word uint64
	bits := 0
	for _, w := range d.want {
		word <<= 1
		if w {
			word |= 1
		}
		if bits++; bits == 64 {
			writeU64(word)
			word, bits = 0, 0
		}
	}
	if bits > 0 {
		writeU64(word)
	}
	return h.Sum64()
}

// Equal reports whether e is the same demand as d: dimensions, chunk size
// (bit pattern) and want set — what Fingerprint hashes, compared exactly.
func (d *Demand) Equal(e *Demand) bool {
	return d.n == e.n && d.c == e.c && math.Float64bits(d.ChunkBytes) == math.Float64bits(e.ChunkBytes) && slices.Equal(d.want, e.want)
}

// AllGather builds an ALLGATHER demand: every GPU wants every chunk of
// every other GPU. gpus lists the participating node IDs; numNodes is the
// topology's node count.
func AllGather(numNodes int, gpus []int, chunksPerGPU int, chunkBytes float64) *Demand {
	d := New(numNodes, chunksPerGPU, chunkBytes)
	for _, s := range gpus {
		for c := 0; c < chunksPerGPU; c++ {
			for _, t := range gpus {
				if s != t {
					d.Set(s, c, t)
				}
			}
		}
	}
	return d
}

// AllToAll builds an ALLTOALL demand: every GPU sends a distinct set of
// chunksPerPair chunks to each other GPU. Following the paper's notation
// (Table 7 caption), chunksPerPair is the number of chunks a sender wants
// to deliver to each destination, so each source owns
// chunksPerPair*(len(gpus)-1) distinct chunks.
func AllToAll(numNodes int, gpus []int, chunksPerPair int, chunkBytes float64) *Demand {
	d := New(numNodes, chunksPerPair*max(1, len(gpus)-1), chunkBytes)
	for _, s := range gpus {
		slot := 0
		for _, t := range gpus {
			if s == t {
				continue
			}
			for j := 0; j < chunksPerPair; j++ {
				d.Set(s, slot, t)
				slot++
			}
		}
	}
	return d
}

// Broadcast builds a BROADCAST demand: root sends all its chunks to every
// other GPU.
func Broadcast(numNodes int, gpus []int, root, chunks int, chunkBytes float64) *Demand {
	d := New(numNodes, chunks, chunkBytes)
	for _, t := range gpus {
		if t == root {
			continue
		}
		for c := 0; c < chunks; c++ {
			d.Set(root, c, t)
		}
	}
	return d
}

// Scatter builds a SCATTER demand: root sends a distinct chunk block of
// chunksPerDest chunks to each other GPU.
func Scatter(numNodes int, gpus []int, root, chunksPerDest int, chunkBytes float64) *Demand {
	d := New(numNodes, chunksPerDest*max(1, len(gpus)-1), chunkBytes)
	slot := 0
	for _, t := range gpus {
		if t == root {
			continue
		}
		for j := 0; j < chunksPerDest; j++ {
			d.Set(root, slot, t)
			slot++
		}
	}
	return d
}

// Gather builds a GATHER demand: every GPU sends its chunks to root.
func Gather(numNodes int, gpus []int, root, chunksPerGPU int, chunkBytes float64) *Demand {
	d := New(numNodes, chunksPerGPU, chunkBytes)
	for _, s := range gpus {
		if s == root {
			continue
		}
		for c := 0; c < chunksPerGPU; c++ {
			d.Set(s, c, root)
		}
	}
	return d
}

// ReduceScatter builds the communication pattern of a REDUCESCATTER:
// shard i of every source must reach GPU i (the reduction itself is
// compute, not communication). Shards are indexed by position in gpus.
func ReduceScatter(numNodes int, gpus []int, chunkBytes float64) *Demand {
	d := New(numNodes, len(gpus), chunkBytes)
	for _, s := range gpus {
		for i, t := range gpus {
			if s != t {
				d.Set(s, i, t)
			}
		}
	}
	return d
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ExpandPerDestination rewrites a demand so every (chunk, destination)
// pair becomes a distinct chunk ID. This is how a no-copy solver treats a
// multicast demand: each destination's copy is its own commodity, since
// without in-network copy the copies are physically separate transfers.
// Chunk sizes and per-destination volumes are preserved.
func (d *Demand) ExpandPerDestination() *Demand {
	// Count the worst-case chunk fan-out per source.
	maxSlots := 1
	for s := 0; s < d.n; s++ {
		slots := 0
		for c := 0; c < d.c; c++ {
			for dst := 0; dst < d.n; dst++ {
				if d.Wants(s, c, dst) {
					slots++
				}
			}
		}
		if slots > maxSlots {
			maxSlots = slots
		}
	}
	out := New(d.n, maxSlots, d.ChunkBytes)
	for s := 0; s < d.n; s++ {
		slot := 0
		for c := 0; c < d.c; c++ {
			for dst := 0; dst < d.n; dst++ {
				if d.Wants(s, c, dst) {
					out.Set(s, slot, dst)
					slot++
				}
			}
		}
	}
	return out
}

// HasMulticast reports whether any chunk is wanted by more than one
// destination (the condition under which copy helps, §4.1).
func (d *Demand) HasMulticast() bool {
	for s := 0; s < d.n; s++ {
		for c := 0; c < d.c; c++ {
			count := 0
			for dst := 0; dst < d.n; dst++ {
				if d.Wants(s, c, dst) {
					count++
					if count > 1 {
						return true
					}
				}
			}
		}
	}
	return false
}
