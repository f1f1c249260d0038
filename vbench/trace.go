package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one request (one diagnosis, one
// push) share Req; Parent links a call to the call that caused it.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op costing one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has begun but not ended.
type openSpan struct {
	t *tracer
	s Span
}

// newReq allocates a request id (0 when tracing is off).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span of layer for call name under parent (0 = root).
func (t *tracer) begin(layer, name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: Span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// id is the span's id, for children to name as parent.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (a parallel
// fan-out) are counted once, as the union of their intervals.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerSelf sums self time per layer. Where a layer runs in parallel with
// itself the sum exceeds wall time; layerBusy is the wall-time split.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// layerBusy splits wall time across layers: every instant covered by some
// span goes to the innermost open spans at that instant (those with no open
// child), shared equally when several run at once. Without parallelism this
// is each layer's self time; with it, the layers' busy times still sum to
// the wall time the spans cover, never more.
func layerBusy(spans []Span) map[string]time.Duration {
	type ev struct {
		t    int64
		open bool
		i    int
	}
	evs := make([]ev, 0, 2*len(spans))
	for i, s := range spans {
		evs = append(evs, ev{s.Start, true, i}, ev{s.End, false, i})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].open && evs[b].open // close before open at a tie
	})
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	active := map[int]bool{}
	openKids := make([]int, len(spans))
	busy := map[string]float64{}
	for k, e := range evs {
		if k > 0 && e.t > evs[k-1].t && len(active) > 0 {
			dt := float64(e.t - evs[k-1].t)
			var inner []int
			for i := range active {
				if openKids[i] == 0 {
					inner = append(inner, i)
				}
			}
			for _, i := range inner {
				busy[spans[i].Layer] += dt / float64(len(inner))
			}
		}
		p, hasParent := index[spans[e.i].Parent]
		if e.open {
			active[e.i] = true
			if hasParent && active[p] {
				openKids[p]++
			}
		} else {
			delete(active, e.i)
			if hasParent && openKids[p] > 0 {
				openKids[p]--
			}
		}
	}
	out := make(map[string]time.Duration, len(busy))
	for l, v := range busy {
		out[l] = time.Duration(v)
	}
	return out
}
