package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/parallel"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	vsketch "vprof/internal/sketch"
	"vprof/internal/store"
)

const (
	// serviceTop is the report depth of every service diagnosis: the
	// service's and `vprof query diagnose`'s default.
	serviceTop = 10
	// baselineRuns is the normal corpus pushed per issue in set-up: the
	// store's default rolling baseline cap.
	baselineRuns = 16
	// candidatePool is how many distinct buggy runs per issue are generated
	// in set-up: two cycle pairs. The timed phase ends early if a faster
	// program exhausts them.
	candidatePool = 4
	// candidateSpace is the range of buggy-run indices the seed picks the
	// pool from.
	candidateSpace = 1000
)

// svcPlan is everything the seed decides for a service run: which buggy
// runs become each issue's candidates, in which order, and which diagnose
// mode each round asks for. Issue ownership is fixed (registry order, dealt
// round-robin to the clients), so every seed diagnoses the same mix of
// issues. The program receives only the generated profiles and requests.
type svcPlan struct {
	issues []string          // every issue, registry order
	owners [][]string        // per client: the issues it owns, round order
	cands  map[string][]int  // issue → buggy-run indices of its candidate pool, push order
	sketch map[string][]bool // issue → sketch mode per round
}

// candRun is the run id a candidate is pushed under: its buggy-run index.
func candRun(buggyRun int) string { return fmt.Sprintf("c%d", buggyRun) }

// makePlan draws a plan. Cycles come in pairs: in the first cycle of a
// pair a seeded half of the issues is diagnosed in sketch mode and the rest
// in full mode, and the second cycle swaps them. Every pair thus diagnoses
// each issue once in each mode, and the seed decides only which comes first.
func makePlan(seed int64, issues []*bugs.Workload, clients, pool int) svcPlan {
	rng := rand.New(rand.NewSource(seed))
	p := svcPlan{
		owners: make([][]string, clients),
		cands:  map[string][]int{},
		sketch: map[string][]bool{},
	}
	for i, w := range issues {
		p.issues = append(p.issues, w.ID)
		p.owners[i%clients] = append(p.owners[i%clients], w.ID)
	}
	for _, id := range p.issues {
		p.cands[id] = rng.Perm(candidateSpace)[:pool]
	}
	for k := 0; k < pool; k += 2 {
		for i, idx := range rng.Perm(len(p.issues)) {
			id := p.issues[idx]
			first := i < len(p.issues)/2
			p.sketch[id] = append(p.sketch[id], first, !first)
		}
	}
	return p
}

// genProfiles is set-up's generated profiles. The marshaled bundles live in
// memory mapped outside the Go heap, so the load generator neither shows in
// heap_mb nor changes how often the program's collector runs.
type genProfiles struct {
	built     map[string]*bugs.Built
	baselines map[string][][]byte // issue → normal runs 0..baselineRuns-1, unmapped once pushed
	cands     map[string][][]byte // issue → candidate pool, plan order
	owner     map[string]string   // blob id → issue
	baseline  map[string]bool     // blob ids of baseline runs
	acct      profileAcct
}

// offHeap copies blob into an anonymous mapping outside the Go heap.
func offHeap(blob []byte) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, len(blob), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", len(blob), err)
	}
	copy(m, blob)
	return m, nil
}

// unmap releases the off-heap blobs of set.
func unmap(set map[string][][]byte) {
	for _, blobs := range set {
		for i, b := range blobs {
			if b != nil {
				syscall.Munmap(b)
				blobs[i] = nil
			}
		}
	}
}

// release unmaps every blob still held.
func (g *genProfiles) release() {
	unmap(g.baselines)
	unmap(g.cands)
}

// profileAcct accumulates what profile generation did.
type profileAcct struct {
	encode, bytes, samples, runs atomic.Int64
}

func blobID(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// profileBlob profiles one run of an issue (normal run index, or buggy run
// index for a candidate), merges its processes and marshals the bundle the
// way `vprof push` uploads it.
func profileBlob(tr *tracer, acct *profileAcct, b *bugs.Built, run int, buggy bool) ([]byte, error) {
	req := tr.newReq()
	prog, meta, cfg := b.NormalProg, b.NormalMeta, b.W.NormalConfig(run)
	if buggy {
		prog, meta, cfg = b.Prog, b.Meta, b.W.BuggyConfig(run)
	}
	sp := tr.begin("sampler", "sampler.ProfileRun", 0, req)
	res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
	sp.end()
	sp = tr.begin("merge", "sampler.MergeProfiles", 0, req)
	p := sampler.MergeProfiles(res.Profiles)
	sp.end()
	res.Recycle()
	sp = tr.begin("profilefmt", "profilefmt.Marshal", 0, req)
	t0 := time.Now()
	blob, err := profilefmt.Marshal(p)
	el := time.Since(t0)
	sp.end()
	if acct != nil {
		acct.encode.Add(int64(el))
		acct.bytes.Add(int64(len(blob)))
		acct.samples.Add(int64(len(p.Samples)))
		acct.runs.Add(1)
	}
	return blob, err
}

// generate builds every issue and profiles its baseline corpus and
// candidate pool on the default worker pool.
func generate(tr *tracer, plan svcPlan) (*genProfiles, error) {
	g := &genProfiles{
		built: map[string]*bugs.Built{}, baselines: map[string][][]byte{}, cands: map[string][][]byte{},
		owner: map[string]string{}, baseline: map[string]bool{},
	}
	type job struct {
		id        string
		slot, run int
		buggy     bool
	}
	var jobs []job
	for _, id := range plan.issues {
		sp := tr.begin("compile", "bugs.Workload.Build", 0, tr.newReq())
		b, err := bugs.ByID(id).Build()
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", id, err)
		}
		g.built[id] = b
		g.baselines[id] = make([][]byte, baselineRuns)
		g.cands[id] = make([][]byte, len(plan.cands[id]))
		for i := 0; i < baselineRuns; i++ {
			jobs = append(jobs, job{id, i, i, false})
		}
		for k, run := range plan.cands[id] {
			jobs = append(jobs, job{id, k, run, true})
		}
	}
	blobs, err := parallel.MapErr(parallel.Workers(0), len(jobs), func(i int) ([]byte, error) {
		j := jobs[i]
		blob, err := profileBlob(tr, &g.acct, g.built[j.id], j.run, j.buggy)
		if err != nil {
			return nil, err
		}
		return offHeap(blob)
	})
	if err != nil {
		for _, b := range blobs {
			if b != nil {
				syscall.Munmap(b)
			}
		}
		return nil, fmt.Errorf("generate profiles: %w", err)
	}
	for i, j := range jobs {
		id := blobID(blobs[i])
		g.owner[id] = j.id
		if j.buggy {
			g.cands[j.id][j.slot] = blobs[i]
		} else {
			g.baselines[j.id][j.slot] = blobs[i]
			g.baseline[id] = true
		}
	}
	return g, nil
}

// deployment is one running service: single node over a local store, or a
// coordinator over three replica nodes, all in-process on loopback.
type deployment struct {
	base      string
	reg       *obs.Registry
	client    *service.Client
	stores    []*store.Store
	servers   []*http.Server
	done      []chan struct{}
	nodeBases []string
	target    service.Backend // the store or router, unwrapped
	times     *layerTimes     // backend wrapper times (traced runs only)
}

func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	d.servers = append(d.servers, hs)
	d.done = append(d.done, done)
	return "http://" + ln.Addr().String(), nil
}

// stop closes every server, waits for each to return, and closes stores.
func (d *deployment) stop() {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Close()
		<-d.done[i]
	}
	for _, st := range d.stores {
		st.Close()
	}
}

// startDeployment opens production stores (fsync on, default caps) under
// dir and starts the service. nodes = 1 is service.Config.Store; nodes = 3
// is a cluster.Router (3 replicas, write quorum 2) over three cluster.Nodes.
// With a tracer the backend is wrapped for timing.
func startDeployment(dir string, nodes int, tr *tracer, scope *reqScope, baseline map[string]bool) (*deployment, error) {
	d := &deployment{reg: obs.NewRegistry()}
	cfg := service.Config{Resolver: service.NewBugsResolver(), Metrics: d.reg}
	var target service.Backend
	layer := "store"
	if nodes == 1 {
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{Metrics: d.reg})
		if err != nil {
			return nil, err
		}
		d.stores = append(d.stores, st)
		cfg.Store, target = st, st
	} else {
		layer = "cluster"
		var refs []cluster.NodeRef
		for i := 0; i < nodes; i++ {
			id := fmt.Sprintf("node-%d", i)
			reg := obs.NewRegistry()
			st, err := store.Open(filepath.Join(dir, id), store.Options{Metrics: reg})
			if err != nil {
				d.stop()
				return nil, err
			}
			d.stores = append(d.stores, st)
			n, err := cluster.NewNode(cluster.NodeConfig{ID: id, Store: st, Resolver: service.NewBugsResolver(), Metrics: reg})
			if err != nil {
				d.stop()
				return nil, err
			}
			base, err := d.serve(n.Handler())
			if err != nil {
				d.stop()
				return nil, err
			}
			d.nodeBases = append(d.nodeBases, base)
			refs = append(refs, cluster.NodeRef{ID: id, Base: base})
		}
		router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: refs, Replicas: 3, WriteQuorum: 2, Metrics: d.reg})
		if err != nil {
			d.stop()
			return nil, err
		}
		cfg.Backend, target = router, router
	}
	d.target = target
	if tr != nil {
		wrapped, times, err := wrapBackend(target, layer, tr, scope, baseline)
		if err != nil {
			d.stop()
			return nil, err
		}
		cfg.Store, cfg.Backend, d.times = nil, wrapped, times
	}
	srv, err := service.New(cfg)
	if err != nil {
		d.stop()
		return nil, err
	}
	base, err := d.serve(srv.Handler())
	if err != nil {
		d.stop()
		return nil, err
	}
	d.base = base
	d.client = service.NewClient(base).Instrument(d.reg)
	return d, nil
}

// pushBaselines pushes every issue's normal corpus, one goroutine per
// client, each pushing its own issues' runs in run order.
func pushBaselines(d *deployment, plan svcPlan, g *genProfiles) error {
	errs := make([]error, len(plan.owners))
	var wg sync.WaitGroup
	for c, owned := range plan.owners {
		wg.Add(1)
		go func(c int, owned []string) {
			defer wg.Done()
			for _, id := range owned {
				for i, blob := range g.baselines[id] {
					if _, err := d.client.PushBlob(id, store.LabelNormal, fmt.Sprint(i), blob); err != nil {
						errs[c] = fmt.Errorf("push baseline %s/%d: %w", id, i, err)
						return
					}
				}
			}
		}(c, owned)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// diagRecord is one fresh diagnosis, kept for the offline comparison.
type diagRecord struct {
	issue    string
	slot     int
	sketches bool
	resp     *service.DiagnoseResponse
}

// loopClient is one closed-loop client. It owns a fixed set of issues;
// each round pushes a fresh candidate, diagnoses it in the drawn mode, and
// re-diagnoses the previous round's candidate (a memo hit).
type loopClient struct {
	d     *deployment
	tr    *tracer
	scope *reqScope
	plan  svcPlan
	g     *genProfiles
	owned []string
	prev  *diagRecord

	push, full, sketch, warm []time.Duration
	freshBy                  byIssue
	clientTime               time.Duration // every request, client side
	ok, attempted, failed    int
	fresh                    []diagRecord
	problems                 []string
}

func (c *loopClient) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// call times one request and records it as a span the backend wrapper can
// attach its calls to.
func (c *loopClient) call(issue, name string, fn func() error) (time.Duration, error) {
	req := c.tr.newReq()
	sp := c.tr.begin("service", name, 0, req)
	c.scope.enter(issue, sp.id(), req)
	start := time.Now()
	err := fn()
	el := time.Since(start)
	c.scope.leave(issue)
	sp.end()
	c.clientTime += el
	c.attempted++
	if err == nil {
		c.ok++
	}
	return el, err
}

// cycle runs one round on every owned issue, using each issue's slot-th
// candidate.
func (c *loopClient) cycle(slot int) {
	for _, issue := range c.owned {
		c.round(issue, slot)
	}
}

func (c *loopClient) round(issue string, slot int) {
	run := candRun(c.plan.cands[issue][slot])
	blob := c.g.cands[issue][slot]
	el, err := c.call(issue, "push", func() error {
		_, err := c.d.client.PushBlob(issue, store.LabelCandidate, run, blob)
		return err
	})
	if err != nil {
		c.fail("push %s/%s: %v", issue, run, err)
		return
	}
	c.push = append(c.push, el)

	rec := diagRecord{issue: issue, slot: slot, sketches: c.plan.sketch[issue][slot]}
	el, err = c.call(issue, "diagnose", func() error {
		var err error
		rec.resp, err = c.d.client.Diagnose(service.DiagnoseRequest{
			Workload: issue, Candidates: []string{run}, Top: serviceTop, Sketches: rec.sketches,
		})
		return err
	})
	switch {
	case err != nil:
		c.fail("diagnose %s/%s: %v", issue, run, err)
	case rec.resp.Cached:
		c.fail("fresh diagnose %s/%s served from the memo", issue, run)
	default:
		if rec.sketches {
			c.sketch = append(c.sketch, el)
		} else {
			c.full = append(c.full, el)
		}
		c.freshBy.add(issue, el)
		c.fresh = append(c.fresh, rec)
	}

	if p := c.prev; p != nil {
		var again *service.DiagnoseResponse
		el, err := c.call(p.issue, "rediagnose", func() error {
			var err error
			again, err = c.d.client.Diagnose(service.DiagnoseRequest{
				Workload: p.issue, Candidates: []string{candRun(c.plan.cands[p.issue][p.slot])}, Top: serviceTop, Sketches: p.sketches,
			})
			return err
		})
		switch {
		case err != nil:
			c.fail("re-diagnose %s: %v", p.issue, err)
		case !again.Cached || again.Render != p.resp.Render:
			c.fail("re-diagnose %s: cached=%v, render equal=%v", p.issue, again.Cached, again.Render == p.resp.Render)
		default:
			c.warm = append(c.warm, el)
		}
	}
	if rec.resp != nil && !rec.resp.Cached {
		c.prev = &rec
	}
}

// runService is the service-1node / service-3node workload.
func runService(o opts, tr *tracer, nodes int) (*result, error) {
	res := newResult()
	issues := allIssues(o.smoke)
	pool := candidatePool
	if o.smoke {
		pool = 2
	}
	plan := makePlan(o.seed, issues, o.clients, pool)
	scope := newReqScope()

	// Set-up: generate and marshal every profile once, then open a fresh
	// deployment and push the baseline corpora, repeated. setup_s is the
	// generation time plus the median deployment; the last one is timed.
	start := time.Now()
	g, err := generate(tr, plan)
	if err != nil {
		return nil, err
	}
	defer g.release()
	genTime := time.Since(start)
	for id, wl := range g.owner {
		scope.learn(id, wl)
	}
	var d *deployment
	var deploys []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		d, err = startDeployment(filepath.Join(o.workDir, fmt.Sprint("setup", rep)), nodes, tr, scope, g.baseline)
		if err != nil {
			return nil, err
		}
		if err := pushBaselines(d, plan, g); err != nil {
			d.stop()
			return nil, err
		}
		deploys = append(deploys, time.Since(start))
	}
	defer d.stop()
	unmap(g.baselines)
	res.setup = genTime + medianDur(deploys)
	setupSpans := len(tr.snapshot())

	// Timed phase: whole pairs of cycles, each cycle giving every issue one
	// round, until the time budget is spent or the candidate pools run out.
	// The clients run concurrently and meet at the end of each cycle, so
	// every run diagnoses the same mix of issues and modes.
	before, err := d.scrapeAll()
	if err != nil {
		return nil, err
	}
	d.times.reset()
	stopPoll, maxQueue := d.pollQueueDepth(tr != nil)
	clients := make([]*loopClient, len(plan.owners))
	for c, owned := range plan.owners {
		clients[c] = &loopClient{d: d, tr: tr, scope: scope, plan: plan, g: g, owned: owned, freshBy: byIssue{}}
	}
	start = time.Now()
	deadline := start.Add(o.seconds)
	cycles := 0
	heap := startHeapSampler()
	for ; cycles < pool && (cycles%2 == 1 || cycles == 0 || time.Now().Before(deadline)); cycles++ {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *loopClient, slot int) {
				defer wg.Done()
				c.cycle(slot)
			}(c, cycles)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	res.heapMB = heap.stop()
	stopPoll()
	if time.Now().Before(deadline) {
		fmt.Fprintf(os.Stderr, "vbench: candidate pools (%d per issue) ran out %.1fs before the deadline\n", pool, time.Until(deadline).Seconds())
	}
	res.info["heap_end_mb"] = metric{liveHeapMB(), "MB"}
	after, err := d.scrapeAll()
	if err != nil {
		return nil, err
	}

	var push, full, sketch, warm, fresh []time.Duration
	freshBy := byIssue{}
	var clientTime time.Duration
	var records []diagRecord
	okReqs := 0
	for _, c := range clients {
		push = append(push, c.push...)
		full = append(full, c.full...)
		sketch = append(sketch, c.sketch...)
		freshBy.merge(c.freshBy)
		warm = append(warm, c.warm...)
		clientTime += c.clientTime
		okReqs += c.ok
		res.attempted += c.attempted
		res.failed += c.failed
		records = append(records, c.fresh...)
		for _, p := range c.problems {
			res.logf("%s", p)
		}
	}
	fresh = append(append(fresh, full...), sketch...)

	// Correctness gates, outside the timed region.
	verifyRenders(res, g, records)
	d.checkEndState(res, after)

	res.e2e["setup_s"] = metric{res.setup.Seconds(), "s"}
	res.e2e["ops_per_s"] = metric{float64(okReqs) / elapsed.Seconds(), "1/s"}
	res.e2e["diagnose_ms"] = metric{freshBy.typicalMs(), "ms"}
	res.info["diagnose_p50_ms"] = metric{median(ms(fresh)), "ms"}
	// Memo hits cost the same on every issue, so their pooled median is
	// the typical one; scheduling behind the other client's analysis
	// makes per-issue samples noisy.
	res.e2e["diagnose_warm_ms"] = metric{median(ms(warm)), "ms"}
	res.e2e["heap_mb"] = metric{res.heapMB, "MB"}
	res.info["push_p50_ms"] = metric{median(ms(push)), "ms"}
	if v, ok := percentile(ms(push), 0.9); ok {
		res.info["push_p90_ms"] = metric{v, "ms"}
	}
	res.info["diagnose_full_p50_ms"] = metric{median(ms(full)), "ms"}
	res.info["diagnose_sketch_p50_ms"] = metric{median(ms(sketch)), "ms"}
	if v, ok := percentile(ms(fresh), 0.9); ok {
		res.info["diagnose_p90_ms"] = metric{v, "ms"}
	} else {
		fmt.Fprintf(os.Stderr, "vbench: diagnose_p90_ms not reported: %d fresh diagnoses leave fewer than %d beyond p90\n", len(fresh), minTail)
	}
	res.info["fresh_diagnoses"] = metric{float64(len(fresh)), "count"}
	res.info["cycles"] = metric{float64(cycles), "count"}
	res.info["timed_s"] = metric{elapsed.Seconds(), "s"}

	if tr != nil {
		all := tr.snapshot()
		res.serviceLayers(d, g, all[:setupSpans], all[setupSpans:], before, after, clientTime, okReqs, maxQueue())
	}
	return res, nil
}

// verifyRenders compares every fresh diagnosis with the offline pipeline on
// the same profiles: analysis.Analyze for full mode, analysis.AnalyzeSketches
// for sketch mode, rendered at the same depth. The profiles are the load
// generator's own, which must hash to the ids the service names.
func verifyRenders(res *result, g *genProfiles, records []diagRecord) {
	type corpus struct {
		normal   map[string]*sampler.Profile
		sketches map[string]*vsketch.Profile
	}
	var issues []string
	corpora := map[string]*corpus{}
	for _, rec := range records {
		if corpora[rec.issue] == nil {
			corpora[rec.issue] = &corpus{map[string]*sampler.Profile{}, map[string]*vsketch.Profile{}}
			issues = append(issues, rec.issue)
		}
	}
	type decoded struct {
		id string
		p  *sampler.Profile
	}
	decode := func(blob []byte) (decoded, error) {
		p, err := profilefmt.Unmarshal(blob)
		return decoded{blobID(blob), p}, err
	}
	// The baseline bundles were released after the push; profiling is
	// deterministic, so they are regenerated.
	base, err := parallel.MapErr(parallel.Workers(0), len(issues)*baselineRuns, func(i int) (decoded, error) {
		blob, err := profileBlob(nil, nil, g.built[issues[i/baselineRuns]], i%baselineRuns, false)
		if err != nil {
			return decoded{}, err
		}
		return decode(blob)
	})
	if err != nil {
		res.check(false, "regenerate baselines: %v", err)
		return
	}
	for i, dp := range base {
		c := corpora[issues[i/baselineRuns]]
		c.normal[dp.id] = dp.p
		c.sketches[dp.id] = vsketch.FromProfile(dp.p)
	}
	mismatch := parallel.Map(parallel.Workers(0), len(records), func(i int) string {
		rec := records[i]
		b, c := g.built[rec.issue], corpora[rec.issue]
		cd, err := decode(g.cands[rec.issue][rec.slot])
		if err != nil {
			return fmt.Sprintf("decode candidate: %v", err)
		}
		cand := cd.p
		if len(rec.resp.Candidates) != 1 || rec.resp.Candidates[0] != cd.id {
			return "response names other candidates"
		}
		var normal []*sampler.Profile
		corp := analysis.NewCorpus()
		for _, id := range rec.resp.Baselines {
			if c.normal[id] == nil {
				return "response names a baseline that was never pushed"
			}
			normal = append(normal, c.normal[id])
			corp.AddSketch(c.sketches[id], b.Prog.Debug)
		}
		if len(normal) == 0 {
			return "response names no baselines"
		}
		var rep *analysis.Report
		if rec.sketches {
			rep, err = analysis.AnalyzeSketches(analysis.SketchInput{
				Debug: b.Prog.Debug, Schema: b.Schema, Normal: c.sketches[rec.resp.Baselines[0]],
				Corpus: corp, Buggy: []*vsketch.Profile{vsketch.FromProfile(cand)},
			}, analysis.DefaultParams())
		} else {
			rep, err = analysis.Analyze(analysis.Input{
				Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: []*sampler.Profile{cand},
			}, analysis.DefaultParams())
		}
		if err != nil {
			return fmt.Sprintf("offline analysis: %v", err)
		}
		if rep.Render(serviceTop) != rec.resp.Render {
			return "render differs from the offline pipeline"
		}
		return ""
	})
	for i, m := range mismatch {
		res.check(m == "", "diagnosis %s slot %d (sketches=%v): %s", records[i].issue, records[i].slot, records[i].sketches, m)
	}
}

// scrapeAll scrapes the service and, on a cluster, every node; node series
// are summed under a "node:" prefix.
func (d *deployment) scrapeAll() (series, error) {
	out, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	for _, nb := range d.nodeBases {
		s, err := scrape(nb)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			out["node:"+k] += v
		}
	}
	return out, nil
}

// storeSeries names a store counter where the deployment's stores export
// it: the service registry on one node, the nodes' registries on a cluster.
func (d *deployment) storeSeries(name string) string {
	if len(d.nodeBases) > 0 {
		return "node:" + name
	}
	return name
}

// checkEndState is the service end-state gate: /healthz ok, nothing shed,
// no client retries or give-ups, no sketch rebuilt from a raw blob.
func (d *deployment) checkEndState(res *result, m series) {
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		res.check(false, "healthz: %v", err)
	} else {
		var h service.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		res.check(err == nil && resp.StatusCode == http.StatusOK && h.Status == "ok",
			"healthz: HTTP %d status %q checks %v (%v)", resp.StatusCode, h.Status, h.Checks, err)
	}
	for _, name := range []string{"vprof_shed_total", "vprof_client_retries_total", "vprof_client_giveups_total",
		d.storeSeries("vprof_store_sketch_rebuilds_total")} {
		res.check(m[name] == 0, "%s = %v, want 0", name, m[name])
	}
}

// pollQueueDepth samples the worker-pool queue gauge while the timed phase
// runs (traced runs only) and returns a stop func and the maximum seen.
func (d *deployment) pollQueueDepth(on bool) (stop func(), maxSeen func() float64) {
	var mx float64
	if !on {
		return func() {}, func() float64 { return mx }
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if s, err := scrape(d.base); err == nil && s["vprof_pool_queue_depth"] > mx {
					mx = s["vprof_pool_queue_depth"]
				}
			}
		}
	}()
	return func() { close(quit); <-done }, func() float64 { return mx }
}

// serviceLayers fills the per-layer metrics of a traced service run from the
// set-up spans, the backend wrapper's times over the timed phase, and the
// /metrics counters' change across it.
func (r *result) serviceLayers(d *deployment, g *genProfiles, setup, timed []Span,
	before, after series, clientTime time.Duration, reqs int, maxQueue float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	sbusy := layerBusy(setup)
	r.layer["compile.busy_s"] = metric{sbusy["compile"].Seconds(), "s"}
	r.layer["compile.calls"] = metric{float64(len(filterLayer(setup, "compile"))), "count"}
	r.layer["sampler.busy_s"] = metric{sbusy["sampler"].Seconds(), "s"}
	r.layer["merge.busy_s"] = metric{sbusy["merge"].Seconds(), "s"}
	r.layer["sampler.runs"] = metric{float64(g.acct.runs.Load()), "count"}
	r.layer["sampler.value_samples"] = metric{float64(g.acct.samples.Load()), "count"}
	r.layer["profilefmt.encode_s"] = metric{time.Duration(g.acct.encode.Load()).Seconds(), "s"}
	r.layer["profilefmt.bytes"] = metric{float64(g.acct.bytes.Load()), "B"}

	t := d.times
	if len(d.nodeBases) > 0 {
		r.layer["cluster.put_s"] = metric{t.total("put").Seconds(), "s"}
		r.layer["cluster.read_s"] = metric{(t.total("get") + t.total("sketch_get")).Seconds(), "s"}
		r.layer["cluster.corpus_s"] = metric{t.total("corpus").Seconds(), "s"}
		r.layer["store.puts"] = metric{delta("node:vprof_node_puts_total"), "count"}
	} else {
		r.layer["store.put_s"] = metric{t.total("put").Seconds(), "s"}
		r.layer["store.get_s"] = metric{t.total("get").Seconds(), "s"}
		r.layer["store.sketch_get_s"] = metric{t.total("sketch_get").Seconds(), "s"}
		r.layer["store.corpus_s"] = metric{t.total("corpus").Seconds(), "s"}
		r.layer["store.puts"] = metric{float64(t.count("put")), "count"}
	}
	hits := delta(d.storeSeries("vprof_store_decode_cache_hits_total"))
	misses := delta(d.storeSeries("vprof_store_decode_cache_misses_total"))
	if hits+misses > 0 {
		r.layer["store.decode_cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	r.layer["store.sketch_rebuilds"] = metric{delta(d.storeSeries("vprof_store_sketch_rebuilds_total")), "count"}
	r.layer["store.dedup_hits"] = metric{delta(d.storeSeries("vprof_store_dedup_hits_total")), "count"}
	r.layer["cluster.node_errors"] = metric{delta("vprof_cluster_node_errors_total"), "count"}
	r.layer["cluster.read_repairs"] = metric{delta("vprof_cluster_read_repairs_total"), "count"}
	r.layer["cluster.quorum_failures"] = metric{delta("vprof_cluster_quorum_failures_total"), "count"}

	serverTime := delta("vprof_http_request_duration_seconds_sum")
	r.layer["service.http_overhead_ms"] = metric{(clientTime.Seconds() - serverTime) * 1000 / float64(max(reqs, 1)), "ms"}
	memo, diagnoses := delta("vprof_diagnose_memo_hits_total"), delta("vprof_diagnose_requests_total")
	if diagnoses > 0 {
		r.layer["service.memo_hit_ratio"] = metric{memo / diagnoses, "ratio"}
	}
	r.layer["service.pool_queue_depth_max"] = metric{maxQueue, "count"}
	r.layer["service.shed"] = metric{delta("vprof_shed_total"), "count"}
	reads := t.total("get") + t.total("sketch_get") + t.total("corpus")
	r.layer["analysis.service_s"] = metric{delta("vprof_diagnose_duration_seconds_sum") - reads.Seconds(), "s"}

	r.traceSummary(timed)
	r.traceOverhead(len(timed))
}

// traceSummary prints each layer's self time and busy share of the spans.
func (r *result) traceSummary(spans []Span) {
	self, busy := layerSelf(spans), layerBusy(spans)
	var names []string
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		r.info["self."+l+"_s"] = metric{self[l].Seconds(), "s"}
		r.info["busy."+l+"_s"] = metric{busy[l].Seconds(), "s"}
	}
}
