package main

// trace.go is the outside-in trace of a traced run: spans recorded from
// the benchmark's own files around each call into a layer, and around
// the phases of a real operation as its Progress hook reports them.
// Spans stay in memory and are written out when the run ends.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"teccl"
)

// span is one timed interval. Parent 0 means a root span; the spans of
// one operation (or one probe round) share Op.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp opens a new operation identifier.
func (t *tracer) nextOp() { t.op++ }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: t.op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) setCounts(id int, counts map[string]float64) { t.spans[id-1].Counts = counts }

// finish computes every span's self time: its duration minus the part
// its children cover.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// write stores the spans, with a header describing the run, as JSON.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"header": header, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// phaseEvent is one Progress sample with the time it arrived.
type phaseEvent struct {
	at time.Time
	p  teccl.Progress
}

// opEvents collects the Progress samples of one traced operation.
type opEvents struct{ events []phaseEvent }

func (e *opEvents) hook(p teccl.Progress) {
	e.events = append(e.events, phaseEvent{time.Now(), p})
}

// phase is a named interval of one operation, cut from outside at its
// Progress samples.
type phase struct {
	name       string
	start, end time.Time
}

// phases splits [start, end] at the typed Progress phases. Everything
// up to the first sample is "core.pre" (session open, estimates, greedy
// bound, model build, crash basis); the solver's own span follows, named
// after the module that does the work; what is left up to the return is
// "core.post" (decompose, validate, session bookkeeping, Close).
func (e *opEvents) phases(start, end time.Time) []phase {
	if len(e.events) == 0 {
		return nil
	}
	first := e.events[0]
	out := []phase{{"core.pre", start, first.at}}
	lastOf := func(name string) (time.Time, bool) {
		for i := len(e.events) - 1; i >= 0; i-- {
			if e.events[i].p.Phase == name {
				return e.events[i].at, true
			}
		}
		return time.Time{}, false
	}
	switch first.p.Solver {
	case "lp":
		if at, ok := lastOf("simplex"); ok {
			out = append(out, phase{"lp.solve", first.at, at}, phase{"core.post", at, end})
		}
	case "milp":
		at, ok := lastOf("branch")
		if !ok {
			at = end
		}
		out = append(out, phase{"milp.solve", first.at, at}, phase{"core.post", at, end})
	case "astar":
		out = append(out, phase{"core.astar", first.at, end})
	case "horizon":
		if at, ok := lastOf("stitch"); ok {
			out = append(out, phase{"horizon.solve", first.at, at}, phase{"core.post", at, end})
		}
	}
	return out
}

// layerAcc accumulates what the traced run observes at the layer
// boundaries: timings pooled and per class, and running totals of the
// counts taken at the same places.
type layerAcc struct {
	pooled  map[string][]float64
	byClass map[string]map[string][]float64
	total   map[string]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		pooled:  map[string][]float64{},
		byClass: map[string]map[string][]float64{},
		total:   map[string]float64{},
	}
}

// obs records one timing (or other sample) of key for a class.
func (a *layerAcc) obs(key, class string, v float64) {
	a.pooled[key] = append(a.pooled[key], v)
	if a.byClass[key] == nil {
		a.byClass[key] = map[string][]float64{}
	}
	a.byClass[key][class] = append(a.byClass[key][class], v)
}

func (a *layerAcc) add(key string, v float64) { a.total[key] += v }

// classMedianSum adds up the per-class medians of key: the time a lap
// spends in that layer, with every class at its typical cost.
func (a *layerAcc) classMedianSum(key string) float64 {
	meds := make([]float64, 0, len(a.byClass[key]))
	for _, xs := range a.byClass[key] {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds) // map order must not reach the floating-point sum
	sum := 0.0
	for _, m := range meds {
		sum += m
	}
	return sum
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
}
