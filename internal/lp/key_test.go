package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestKeyNamesMatchFormats: a key formats to byte for byte the string the
// model builders used to hand AddVar, over the whole range of every
// field.
func TestKeyNamesMatchFormats(t *testing.T) {
	formats := map[VarKind]func(s, c, at, k int) string{
		KindFlow:        func(s, _, at, k int) string { return fmt.Sprintf("f[s%d,l%d,k%d]", s, at, k) },
		KindBuffer:      func(s, _, at, k int) string { return fmt.Sprintf("b[s%d,n%d,k%d]", s, at, k) },
		KindRead:        func(s, _, at, k int) string { return fmt.Sprintf("r[s%d,d%d,k%d]", s, at, k) },
		KindChunkFlow:   func(s, c, at, k int) string { return fmt.Sprintf("F[s%d.c%d,l%d,k%d]", s, c, at, k) },
		KindChunkBuffer: func(s, c, at, k int) string { return fmt.Sprintf("B[s%d.c%d,n%d,k%d]", s, c, at, k) },
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[VarKey]string{}
	for kind, format := range formats {
		for i := 0; i < 2000; i++ {
			s, c, at, k := rng.Intn(1<<keySourceBits), rng.Intn(1<<keyChunkBits), rng.Intn(1<<keyAtBits), rng.Intn(1<<keyEpochBits)
			switch i { // the corners
			case 0:
				s, c, at, k = 0, 0, 0, 0
			case 1:
				s, c, at, k = 1<<keySourceBits-1, 1<<keyChunkBits-1, 1<<keyAtBits-1, 1<<keyEpochBits-1
			}
			if kind < KindChunkFlow {
				c = 0
			}
			key := MakeKey(kind, s, c, at, k)
			want := format(s, c, at, k)
			if key == 0 || key.String() != want {
				t.Fatalf("MakeKey(%d, %d, %d, %d, %d) = %#x, named %q; want %q", kind, s, c, at, k, uint64(key), key, want)
			}
			if prev, dup := seen[key]; dup && prev != want {
				t.Fatalf("%q and %q share key %#x", prev, want, uint64(key))
			}
			seen[key] = want
		}
	}
}

// TestKeyOutOfRangeIsAnonymous: an index that does not fit its field, a
// negative one or an unknown kind yields the zero key — never a panic,
// never another column's key — and the column it is given to is simply
// anonymous.
func TestKeyOutOfRangeIsAnonymous(t *testing.T) {
	for _, bad := range [][5]int{
		{int(KindFlow), 1 << keySourceBits, 0, 0, 0},
		{int(KindChunkFlow), 0, 1 << keyChunkBits, 0, 0},
		{int(KindBuffer), 0, 0, 1 << keyAtBits, 0},
		{int(KindRead), 0, 0, 0, 1 << keyEpochBits},
		{int(KindFlow), -1, 0, 0, 0},
		{int(KindFlow), 0, 0, 0, -1},
		{0, 1, 1, 1, 1},
		{int(KindChunkBuffer) + 1, 1, 1, 1, 1},
	} {
		if key := MakeKey(VarKind(bad[0]), bad[1], bad[2], bad[3], bad[4]); key != 0 {
			t.Errorf("MakeKey%v = %#x (%q), want the zero key", bad, uint64(key), key)
		}
	}
	if s := VarKey(0xf << 60).String(); s != "" {
		t.Errorf("a key of an unknown kind formats as %q, want \"\"", s)
	}

	p := NewProblem(Maximize)
	named := p.AddVar("x", 0, 1, 1)
	anon := p.AddKeyedVar(MakeKey(KindFlow, 0, 0, 0, 1<<keyEpochBits), 0, 1, 1)
	keyed := p.AddKeyedVar(MakeKey(KindFlow, 3, 0, 7, 2), 0, 1, 1)
	last := p.AddVar("", 0, 1, 1)
	for _, c := range []struct {
		v    VarID
		key  VarKey
		name string
	}{
		{named, 0, "x"},
		{anon, 0, ""},
		{keyed, MakeKey(KindFlow, 3, 0, 7, 2), "f[s3,l7,k2]"},
		{last, 0, ""},
	} {
		if p.Key(c.v) != c.key || p.Name(c.v) != c.name {
			t.Errorf("column %d: key %#x name %q, want %#x %q", c.v, uint64(p.Key(c.v)), p.Name(c.v), uint64(c.key), c.name)
		}
	}
}

// TestCloneSharesKeysWithoutAliasing: a clone reads the keys of the
// problem it was taken from, and columns added to either side afterwards
// are invisible to the other.
func TestCloneSharesKeysWithoutAliasing(t *testing.T) {
	p := NewProblem(Maximize)
	p.Reserve(4) // spare key capacity for the clone to (not) scribble into
	a := MakeKey(KindFlow, 1, 0, 2, 3)
	p.AddKeyedVar(a, 0, 1, 0)
	q := p.Clone()
	kp, kq := MakeKey(KindBuffer, 1, 0, 1, 1), MakeKey(KindRead, 2, 0, 2, 2)
	vp := p.AddKeyedVar(kp, 0, 1, 0)
	vq := q.AddKeyedVar(kq, 0, 1, 0)
	if vp != vq {
		t.Fatalf("appended columns %d and %d, want the same index on both sides", vp, vq)
	}
	if p.Key(0) != a || q.Key(0) != a || p.Key(vp) != kp || q.Key(vq) != kq {
		t.Fatalf("keys after appending to both sides: p = %q %q, q = %q %q", p.Key(0), p.Key(vp), q.Key(0), q.Key(vq))
	}
}
