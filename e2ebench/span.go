package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public entry point.
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent"` // the calling layer; "" for an operation's root
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends. The
// traced replay is sequential, so the request a span belongs to is simply
// the one the generator is replaying when the span is taken.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	req atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it; a no-op while
// tracing is off.
func (t *tracer) begin(layer, parent string) func() {
	if !t.on.Load() {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(layer, parent, start, time.Now()) }
}

// add records a span taken between start and end.
func (t *tracer) add(layer, parent string, start, end time.Time) {
	s := span{Layer: layer, Parent: parent, Req: int(t.req.Load()),
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(layer, parent string, f func()) {
	end := t.begin(layer, parent)
	f()
	end()
}

// layerBudget is one layer's line of the budget.
type layerBudget struct {
	Layer     string  `json:"layer"`
	Spans     int     `json:"spans"`
	MeanUs    float64 `json:"mean_us"`        // mean span duration
	SelfUs    float64 `json:"mean_self_us"`   // mean self time per span
	PerOpUs   float64 `json:"self_per_op_us"` // self time per traced operation
	ShareOfOp float64 `json:"share"`
}

// traceBudget is the per-layer account of a traced run.
type traceBudget struct {
	Ops           int           `json:"ops"`
	OpUs          float64       `json:"op_us"` // mean root-span duration
	Layers        []layerBudget `json:"layers"`
	UnaccountedUs float64       `json:"unaccounted_us"`
	// OvershootUs is, per operation, how much longer replayed children ran
	// than the calls they stand for: the self time floored away.
	OvershootUs float64 `json:"replay_overshoot_us"`
}

// budgetOf computes self times. A span's parent is the latest span of its
// Parent layer in the same request that started no later than it — the
// enclosing call when the child ran inside it, the call being replayed when
// the child was replayed after it. Self time is the span's duration minus
// its children's, floored at zero: a replayed child that ran longer than the
// call it stands for has its excess reported as negative unaccounted time
// rather than as a negative layer. Operations are the root spans (Parent
// ""); a layer's per-operation self time is its total self time over the
// number of operations, so the layers and the unaccounted line add up to
// the mean operation time.
//
// Because every span's self time is what its children leave of it, the
// self times of one request telescope to its root span: time no span
// covers lands in the self time of the span around it, never in the
// unaccounted line. That line is therefore never positive; it is minus the
// replay overshoot (OvershootUs), the one error the budget can show.
func budgetOf(spans []span) traceBudget {
	byReq := map[int][]int{}
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	childSum := make([]int64, len(spans))
	var b traceBudget
	var rootTotal int64
	for _, idx := range byReq {
		sort.Slice(idx, func(a, c int) bool {
			sa, sc := spans[idx[a]], spans[idx[c]]
			if sa.Start != sc.Start {
				return sa.Start < sc.Start
			}
			return sa.End > sc.End // an enclosing call sorts before its child
		})
		for k, i := range idx {
			s := spans[i]
			if s.Parent == "" {
				b.Ops++
				rootTotal += s.dur()
				continue
			}
			for p := k - 1; p >= 0; p-- {
				if spans[idx[p]].Layer == s.Parent {
					childSum[idx[p]] += s.dur()
					break
				}
			}
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	var overshoot int64
	per := map[string]*acc{}
	var order []string
	for i, s := range spans {
		a := per[s.Layer]
		if a == nil {
			a = &acc{}
			per[s.Layer] = a
			order = append(order, s.Layer)
		}
		a.n++
		a.dur += s.dur()
		a.self += max(s.dur()-childSum[i], 0)
		overshoot += max(childSum[i]-s.dur(), 0)
	}
	if b.Ops == 0 {
		return b
	}
	ops := float64(b.Ops)
	b.OpUs = float64(rootTotal) / ops / 1e3
	accounted := 0.0
	for _, l := range order {
		a := per[l]
		lb := layerBudget{
			Layer:   l,
			Spans:   a.n,
			MeanUs:  float64(a.dur) / float64(a.n) / 1e3,
			SelfUs:  float64(a.self) / float64(a.n) / 1e3,
			PerOpUs: float64(a.self) / ops / 1e3,
		}
		lb.ShareOfOp = lb.PerOpUs / b.OpUs
		accounted += lb.PerOpUs
		b.Layers = append(b.Layers, lb)
	}
	b.UnaccountedUs = b.OpUs - accounted
	b.OvershootUs = float64(overshoot) / ops / 1e3
	return b
}

// layer returns the budget line of a layer (zero when it was not traced).
func (b traceBudget) layer(name string) layerBudget {
	for _, l := range b.Layers {
		if l.Layer == name {
			return l
		}
	}
	return layerBudget{Layer: name}
}
