// Command vbench is the repository benchmark: one command that runs a named
// workload, prints every end-to-end metric by name with its unit, and checks
// that the program's outputs are correct. With -trace 1 it instead records
// spans around each layer's public functions and prints the per-layer split.
//
//	vbench -workload offline-table3|service-1node|service-3node \
//	       -seed N -seconds S -trace 0|1 [-smoke]
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Lines before it describe the run context and the workload's own figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	clients  int
	workDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's outcome.
type result struct {
	setup     time.Duration
	heapMB    float64
	attempted int
	failed    int
	e2e       map[string]metric // end-to-end metrics (untraced runs)
	layer     map[string]metric // per-layer metrics (traced runs)
	info      map[string]metric // the workload's own figures, printed before the result
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]metric{}}
}

// logf reports a problem on standard error.
func (r *result) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vbench: "+format+"\n", args...)
}

// check counts a failed gate as a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.logf(format, args...)
	}
}

// heapSampler reads the live heap as of the most recent collection
// (runtime/metrics, no forced GC) every few milliseconds while a timed phase
// runs. Its mean is heap_mb: a snapshot at one instant would depend on
// which profiles happen to sit in the caches at that instant.
type heapSampler struct {
	quit, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the mean live heap in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	var sum float64
	for _, s := range h.samples {
		sum += s
	}
	return sum / float64(max(len(h.samples), 1))
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

var workloads = map[string]func(opts, *tracer) (*result, error){
	"offline-table3": runOffline,
	"service-1node":  func(o opts, tr *tracer) (*result, error) { return runService(o, tr, 1) },
	"service-3node":  func(o opts, tr *tracer) (*result, error) { return runService(o, tr, 3) },
}

func main() {
	var o opts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: offline-table3, service-1node or service-3node")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink issues and rounds; every metric and gate still runs")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	// Two closed-loop clients, never more than there are CPUs.
	o.clients = min(2, runtime.NumCPU())
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "vbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, seconds, trace)
		flag.Usage()
		os.Exit(2)
	}
	o.workDir = filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(o.workDir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	printContext(o)
	res, err := run(o, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.RemoveAll(o.workDir)
		os.Exit(1)
	}
	if err := tr.write(o.workDir + ".trace.json"); err != nil {
		fmt.Fprintln(os.Stderr, "vbench: write trace:", err)
	}
	emit(o, res)
}

// printContext records the run context: machine, toolchain, seed and load.
func printContext(o opts) {
	ctx := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"smoke":      o.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	if strings.HasPrefix(o.workload, "service") {
		ctx["clients"] = o.clients
		ctx["loop"] = "closed"
	}
	line, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit prints the workload's own figures, then the result line.
func emit(o opts, r *result) {
	keys := func(m map[string]metric) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, k := range keys(r.info) {
		fmt.Printf("%s %s %.6g %s\n", o.workload, k, r.info[k].Value, r.info[k].Unit)
	}
	metrics := complete(endToEnd, r.e2e)
	if o.trace {
		metrics = complete(perLayer, r.layer)
	} else {
		for _, m := range endToEnd {
			r.check(r.e2e[m.name].Value > 0, "end-to-end metric %s was not measured", m.name)
		}
	}
	for _, k := range keys(metrics) {
		fmt.Printf("%s %s %.6g %s\n", o.workload, k, metrics[k].Value, metrics[k].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, metrics})
	fmt.Println(string(line))
}
