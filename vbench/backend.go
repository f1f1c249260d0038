package main

import (
	"fmt"
	"sync"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// The service detects these optional Backend refinements by type assertion
// (service.CorpusBackend, plus two unexported interfaces with the same
// method sets as below). A timing wrapper must expose exactly the ones its
// target has: dropping Corpus would silently move the cluster's sketch
// diagnose onto the one-sketch-at-a-time fallback, and adding Recovery to a
// router would change /healthz.
type (
	healthDetailer interface {
		HealthDetail() (string, map[string]string)
	}
	recoveryReporter interface{ Recovery() *store.FsckReport }
)

// reqScope maps a workload to the client request currently serving it.
// Each client owns a disjoint set of workloads and has one request in
// flight, so a backend call for a workload belongs to that request.
type reqScope struct {
	mu  sync.Mutex
	cur map[string][2]int64 // workload → {span id, request id}
	wl  map[string]string   // blob id → workload
}

func newReqScope() *reqScope {
	return &reqScope{cur: map[string][2]int64{}, wl: map[string]string{}}
}

func (s *reqScope) enter(workload string, span, req int64) {
	s.mu.Lock()
	s.cur[workload] = [2]int64{span, req}
	s.mu.Unlock()
}

func (s *reqScope) leave(workload string) {
	s.mu.Lock()
	delete(s.cur, workload)
	s.mu.Unlock()
}

// learn records which workload a blob id belongs to.
func (s *reqScope) learn(id, workload string) {
	s.mu.Lock()
	s.wl[id] = workload
	s.mu.Unlock()
}

func (s *reqScope) of(workload string) (span, req int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cur[workload]
	return c[0], c[1]
}

func (s *reqScope) ofBlob(id string) (span, req int64) {
	s.mu.Lock()
	wl := s.wl[id]
	s.mu.Unlock()
	return s.of(wl)
}

// layerTimes accumulates a backend layer's time and calls per call kind. A
// nil *layerTimes (untraced runs) reads as zero.
type layerTimes struct {
	mu    sync.Mutex
	times map[string]time.Duration
	calls map[string]int
}

func (l *layerTimes) add(kind string, d time.Duration) {
	l.mu.Lock()
	if l.times == nil {
		l.times, l.calls = map[string]time.Duration{}, map[string]int{}
	}
	l.times[kind] += d
	l.calls[kind]++
	l.mu.Unlock()
}

// reset zeroes the accumulators (at the start of the timed phase).
func (l *layerTimes) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.times, l.calls = nil, nil
	l.mu.Unlock()
}

func (l *layerTimes) total(kind string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.times[kind]
}

func (l *layerTimes) count(kind string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls[kind]
}

// timedBackend times the data-path calls of a service.Backend and records
// each as a span under the client request it serves. Embedding the
// interface forwards the remaining methods and none of the optional ones;
// wrapBackend adds those back per target.
type timedBackend struct {
	service.Backend
	layer string // "store" or "cluster"
	tr    *tracer
	scope *reqScope
	times *layerTimes
	// baseline marks baseline blob ids: their sketch reads are the corpus
	// fold (kind "corpus"), candidate sketch reads are kind "sketch_get".
	baseline map[string]bool
}

func (b *timedBackend) PutBlob(workload string, label store.Label, run string, blob []byte) (*store.Entry, bool, error) {
	parent, req := b.scope.of(workload)
	sp := b.tr.begin(b.layer, "PutBlob", parent, req)
	start := time.Now()
	e, dup, err := b.Backend.PutBlob(workload, label, run, blob)
	b.times.add("put", time.Since(start))
	sp.end()
	return e, dup, err
}

func (b *timedBackend) Get(id string) (*sampler.Profile, error) {
	parent, req := b.scope.ofBlob(id)
	sp := b.tr.begin(b.layer, "Get", parent, req)
	start := time.Now()
	p, err := b.Backend.Get(id)
	b.times.add("get", time.Since(start))
	sp.end()
	return p, err
}

func (b *timedBackend) GetSketch(id string) (*sketch.Profile, error) {
	parent, req := b.scope.ofBlob(id)
	kind := "sketch_get"
	if b.baseline[id] {
		kind = "corpus"
	}
	sp := b.tr.begin(b.layer, "GetSketch", parent, req)
	start := time.Now()
	p, err := b.Backend.GetSketch(id)
	b.times.add(kind, time.Since(start))
	sp.end()
	return p, err
}

// routerBackend is the wrapper for a target that folds corpora and
// classifies its own health (the cluster router).
type routerBackend struct {
	*timedBackend
	corpus service.CorpusBackend
	health healthDetailer
}

func (b *routerBackend) Corpus(workload string, ids []string) (*analysis.Corpus, error) {
	parent, req := b.scope.of(workload)
	sp := b.tr.begin(b.layer, "Corpus", parent, req)
	start := time.Now()
	c, err := b.corpus.Corpus(workload, ids)
	b.times.add("corpus", time.Since(start))
	sp.end()
	return c, err
}

func (b *routerBackend) HealthDetail() (string, map[string]string) { return b.health.HealthDetail() }

// storeBackend is the wrapper for a target that reports its recovery (the
// single-node store).
type storeBackend struct {
	*timedBackend
	rec recoveryReporter
}

func (b *storeBackend) Recovery() *store.FsckReport { return b.rec.Recovery() }

// wrapBackend returns a timing wrapper exposing exactly the optional
// interfaces target implements. Combinations no backend has are refused
// rather than guessed.
func wrapBackend(target service.Backend, layer string, tr *tracer, scope *reqScope, baseline map[string]bool) (service.Backend, *layerTimes, error) {
	tb := &timedBackend{Backend: target, layer: layer, tr: tr, scope: scope, times: &layerTimes{}, baseline: baseline}
	cb, hasCorpus := target.(service.CorpusBackend)
	hd, hasHealth := target.(healthDetailer)
	rr, hasRecovery := target.(recoveryReporter)
	switch {
	case hasCorpus && hasHealth && !hasRecovery:
		return &routerBackend{timedBackend: tb, corpus: cb, health: hd}, tb.times, nil
	case !hasCorpus && !hasHealth && hasRecovery:
		return &storeBackend{timedBackend: tb, rec: rr}, tb.times, nil
	case !hasCorpus && !hasHealth && !hasRecovery:
		return tb, tb.times, nil
	}
	return nil, nil, fmt.Errorf("no timing wrapper for a backend with Corpus=%v HealthDetail=%v Recovery=%v",
		hasCorpus, hasHealth, hasRecovery)
}
