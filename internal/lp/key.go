package lp

import "strconv"

// VarKey is the packed identity of a column of a time-expanded model:
// which kind of variable it is, the source (and, for the per-chunk
// kinds, the chunk) of the commodity it carries, the link or node it
// sits on, and the epoch. Two models of related instances — a shorter
// horizon, the next window, the next A* round, the next request of a
// session — give the same quantity the same key, which is what a basis
// is carried across them by; and a key costs its column eight bytes
// where a formatted name cost an allocation. The zero key means "no
// identity": anonymous columns carry it, and so does any column whose
// indexes do not fit the packing (MakeKey), so such a column is merely
// left out of basis transfers.
//
// Layout, high to low: kind 4 bits, source 14, chunk 16, link|node 16,
// epoch 14.
type VarKey uint64

// VarKind is the kind field of a VarKey.
type VarKind uint8

// The kinds of keyed columns, named after the variables of the paper's
// formulations: the LP form's per-source flow, buffer and read rates
// (§4.1) and the general form's per-chunk flow and buffer binaries (§3.1).
const (
	KindFlow        VarKind = iota + 1 // f[s,l,k]
	KindBuffer                         // b[s,n,k]
	KindRead                           // r[s,d,k]
	KindChunkFlow                      // F[s.c,l,k]
	KindChunkBuffer                    // B[s.c,n,k]
)

// keyForms spells each kind's name: its letter, the letter of its
// link|node index, and whether it carries a chunk.
var keyForms = [...]struct {
	name, at byte
	chunk    bool
}{
	KindFlow:        {'f', 'l', false},
	KindBuffer:      {'b', 'n', false},
	KindRead:        {'r', 'd', false},
	KindChunkFlow:   {'F', 'l', true},
	KindChunkBuffer: {'B', 'n', true},
}

const (
	keyEpochBits  = 14
	keyAtBits     = 16
	keyChunkBits  = 16
	keySourceBits = 14
)

// MakeKey packs a column identity. An unknown kind, a negative index, or
// one too large for its field yields the zero key; kinds without a chunk
// pass 0 for it.
func MakeKey(kind VarKind, source, chunk, at, epoch int) VarKey {
	if kind == 0 || int(kind) >= len(keyForms) ||
		uint(source) >= 1<<keySourceBits || uint(chunk) >= 1<<keyChunkBits ||
		uint(at) >= 1<<keyAtBits || uint(epoch) >= 1<<keyEpochBits {
		return 0
	}
	k := uint64(kind)
	k = k<<keySourceBits | uint64(source)
	k = k<<keyChunkBits | uint64(chunk)
	k = k<<keyAtBits | uint64(at)
	k = k<<keyEpochBits | uint64(epoch)
	return VarKey(k)
}

// String formats the name the key stands for — "f[s3,l7,k2]",
// "B[s0.c1,n4,k5]" — byte for byte what the model builders used to hand
// AddVar; the zero key, and a value MakeKey cannot have produced, format
// as "".
func (k VarKey) String() string {
	u := uint64(k)
	if kind := u >> (keyEpochBits + keyAtBits + keyChunkBits + keySourceBits); kind == 0 || kind >= uint64(len(keyForms)) {
		return ""
	}
	field := func(bits uint) int64 {
		v := u & (1<<bits - 1)
		u >>= bits
		return int64(v)
	}
	epoch, at, chunk, source := field(keyEpochBits), field(keyAtBits), field(keyChunkBits), field(keySourceBits)
	form := keyForms[u]
	b := make([]byte, 0, 32)
	b = append(b, form.name, '[', 's')
	b = strconv.AppendInt(b, source, 10)
	if form.chunk {
		b = append(b, '.', 'c')
		b = strconv.AppendInt(b, chunk, 10)
	}
	b = append(b, ',', form.at)
	b = strconv.AppendInt(b, at, 10)
	b = append(b, ',', 'k')
	b = strconv.AppendInt(b, epoch, 10)
	return string(append(b, ']'))
}
