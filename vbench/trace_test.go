package main

import (
	"testing"
	"time"
)

func span(id, parent int64, layer string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Layer: layer, Name: layer, Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "driver", 0, 100),
		span(2, 1, "sampler", 10, 40), // overlaps 3
		span(3, 1, "sampler", 30, 60),
		span(4, 1, "merge", 55, 70),     // overlaps 3
		span(5, 1, "analysis", 90, 120), // runs past its parent: clipped
		span(6, 2, "vm", 15, 20),
	}
	self := selfTimes(spans)
	// Children of 1 cover [10,70) ∪ [90,100) = 70 of its 100.
	want := map[int64]time.Duration{1: 30, 2: 25, 3: 30, 4: 15, 5: 30, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	if got := layerSelf(spans)["sampler"]; got != 55 {
		t.Errorf("layerSelf(sampler) = %d, want 55", got)
	}
}

func TestLayerBusySplitsParallelTime(t *testing.T) {
	spans := []Span{
		span(1, 0, "driver", 0, 100),
		span(2, 1, "sampler", 0, 60), // two samplers in parallel for 40
		span(3, 1, "sampler", 20, 60),
		span(4, 1, "merge", 40, 80), // then sampler+sampler+merge for 20
		span(5, 1, "analysis", 80, 100),
	}
	busy := layerBusy(spans)
	// [0,20) sampler alone; [20,40) two samplers; [40,60) two samplers and
	// merge share 3 ways; [60,80) merge; [80,100) analysis.
	want := map[string]float64{"sampler": 20 + 20 + 40.0/3, "merge": 20.0/3 + 20, "analysis": 20}
	var sum time.Duration
	for l, d := range busy {
		sum += d
		if w := want[l]; absDiff(float64(d), w) > 1 {
			t.Errorf("busy(%s) = %d, want %.1f", l, d, w)
		}
	}
	if _, ok := busy["driver"]; ok && busy["driver"] > 1 {
		t.Errorf("driver has no uncovered time, got busy %d", busy["driver"])
	}
	if absDiff(float64(sum), 100) > 1 {
		t.Errorf("busy times sum to %d, want the 100 the spans cover", sum)
	}
}

func TestLayerBusySequentialIsSelfTime(t *testing.T) {
	spans := []Span{
		span(1, 0, "driver", 0, 50),
		span(2, 1, "compile", 5, 15),
		span(3, 1, "render", 20, 30),
		span(4, 0, "coz", 60, 70),
	}
	busy, self := layerBusy(spans), layerSelf(spans)
	for l, d := range self {
		if absDiff(float64(busy[l]), float64(d)) > 1 {
			t.Errorf("%s: busy %d != self %d without parallelism", l, busy[l], d)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "y", 0, tr.newReq())
	sp.end()
	if sp.id() != 0 || tr.snapshot() != nil || tr.write("ignored") != nil {
		t.Error("nil tracer recorded something")
	}
	tr = newTracer()
	root := tr.begin("a", "root", 0, tr.newReq())
	tr.begin("b", "child", root.id(), 1).end()
	root.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Parent != got[1].ID || got[0].Req != got[1].Req {
		t.Errorf("spans not linked: %+v", got)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
