package milp

import (
	"context"
	"reflect"
	"testing"

	"teccl/internal/lp"
)

// reachableTypes walks, by reflection, everything root keeps alive —
// pointers, interfaces, maps, and slices to their capacity, since a
// truncated slice still pins its whole backing array — and counts what it
// reaches per pointer type and per interface's dynamic type.
func reachableTypes(root any) map[reflect.Type]int {
	out := map[reflect.Type]int{}
	type visit struct {
		at  uintptr
		typ reflect.Type
		n   int
	}
	seen := map[visit]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			if v.IsNil() {
				return
			}
			k := visit{v.Pointer(), v.Type(), 0}
			if v.Kind() == reflect.Slice {
				k.n = v.Cap()
			}
			if seen[k] {
				return
			}
			seen[k] = true
			switch v.Kind() {
			case reflect.Pointer:
				out[v.Type()]++
				walk(v.Elem())
			case reflect.Slice:
				full := v.Slice(0, v.Cap())
				for i := 0; i < full.Len(); i++ {
					walk(full.Index(i))
				}
			default:
				for it := v.MapRange(); it.Next(); {
					walk(it.Key())
					walk(it.Value())
				}
			}
		case reflect.Interface:
			if !v.IsNil() {
				if e := v.Elem(); e.Kind() != reflect.Pointer {
					out[e.Type()]++
				}
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(root))
	return out
}

// TestPooledWorkspaceHoldsNoCallerMemory walks what the package-level
// Solve hands back to the pool — its Solver once (*Solver).Solve has
// returned — after searches that branched, serially and with four
// deterministic workers, under a context and from a root warm start: no
// lp.Problem (the workers' clones included), no lp.Basis, no context and
// no bound change of the last search tree may be reachable from it.
func TestPooledWorkspaceHoldsNoCallerMemory(t *testing.T) {
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := new(Solver)
	for _, workers := range []int{1, 4} {
		p := corpusProblem(0)
		root := new(Solver).Solve(p, Options{})
		sol := ms.Solve(p, Options{Workers: workers, Deterministic: true, Context: ctx, RootWarmStart: root.RootBasis})
		if sol.Status != StatusOptimal || sol.Nodes < 16 {
			t.Fatalf("%d workers: %v after %d nodes; the fixture measures nothing", workers, sol.Status, sol.Nodes)
		}
		for typ, n := range reachableTypes(ms) {
			switch {
			case typ == reflect.TypeOf((*lp.Problem)(nil)):
				t.Errorf("%d workers: the Solver reaches %d lp.Problem", workers, n)
			case typ == reflect.TypeOf((*lp.Basis)(nil)):
				t.Errorf("%d workers: the Solver reaches %d lp.Basis", workers, n)
			case typ == reflect.TypeOf((*boundChange)(nil)):
				t.Errorf("%d workers: the Solver reaches %d bound changes of the last tree", workers, n)
			case typ.Implements(ctxType):
				t.Errorf("%d workers: the Solver reaches a context (%v)", workers, typ)
			}
		}
	}
}
