package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/cluster"
	"vprof/internal/service"
	"vprof/internal/store"
)

func TestWrapperForwardsExactlyTargetInterfaces(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []cluster.NodeRef{{ID: "n0", Base: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []service.Backend{st, router} {
		w, _, err := wrapBackend(target, "x", newTracer(), newReqScope(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			has  func(any) bool
		}{
			{"CorpusBackend", func(v any) bool { _, ok := v.(service.CorpusBackend); return ok }},
			{"HealthDetail", func(v any) bool { _, ok := v.(healthDetailer); return ok }},
			{"Recovery", func(v any) bool { _, ok := v.(recoveryReporter); return ok }},
		} {
			if c.has(w) != c.has(target) {
				t.Errorf("%T: wrapper implements %s = %v, target = %v", target, c.name, c.has(w), c.has(target))
			}
		}
	}
}

// sessionOutcome is what a small push/diagnose session leaves behind.
type sessionOutcome struct {
	cache   store.CacheStats
	sketch  store.SketchStats
	renders []string
	counter map[string]float64
}

// smallSession pushes 4 baselines and 2 candidates of one issue, then
// diagnoses in both modes and repeats each diagnosis once.
func smallSession(t *testing.T, nodes int, tr *tracer) (sessionOutcome, *deployment) {
	t.Helper()
	b := bugs.ByID("u2").MustBuild()
	scope := newReqScope()
	var normal, cands [][]byte
	baseline := map[string]bool{}
	for i := 0; i < 4; i++ {
		blob, err := profileBlob(nil, nil, b, i, false)
		if err != nil {
			t.Fatal(err)
		}
		normal = append(normal, blob)
		baseline[blobID(blob)] = true
		scope.learn(blobID(blob), "u2")
	}
	for i := 0; i < 2; i++ {
		blob, err := profileBlob(nil, nil, b, i, true)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, blob)
		scope.learn(blobID(blob), "u2")
	}
	d, err := startDeployment(t.TempDir(), nodes, tr, scope, baseline)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.stop)
	for i, blob := range normal {
		if _, err := d.client.PushBlob("u2", store.LabelNormal, fmt.Sprint(i), blob); err != nil {
			t.Fatal(err)
		}
	}
	var out sessionOutcome
	for i, blob := range cands {
		if _, err := d.client.PushBlob("u2", store.LabelCandidate, fmt.Sprint(i), blob); err != nil {
			t.Fatal(err)
		}
	}
	for _, sk := range []bool{false, true, false, true} {
		for i := range cands {
			resp, err := d.client.Diagnose(service.DiagnoseRequest{Workload: "u2", Candidates: []string{fmt.Sprint(i)}, Top: serviceTop, Sketches: sk})
			if err != nil {
				t.Fatal(err)
			}
			out.renders = append(out.renders, resp.Render)
		}
	}
	out.cache, out.sketch = d.target.CacheStats(), d.target.SketchStats()
	m, err := d.scrapeAll()
	if err != nil {
		t.Fatal(err)
	}
	out.counter = map[string]float64{}
	for k, v := range m {
		if strings.HasSuffix(k, "_total") && !strings.Contains(k, "bytes") {
			out.counter[k] = v
		}
	}
	return out, d
}

func TestWrapperLeavesServiceBehaviourUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a service session")
	}
	for _, nodes := range []int{1, 3} {
		plain, _ := smallSession(t, nodes, nil)
		wrapped, d := smallSession(t, nodes, newTracer())
		if plain.cache != wrapped.cache || plain.sketch != wrapped.sketch {
			t.Errorf("%d node(s): stats differ: cache %+v vs %+v, sketches %+v vs %+v",
				nodes, plain.cache, wrapped.cache, plain.sketch, wrapped.sketch)
		}
		if !reflect.DeepEqual(plain.counter, wrapped.counter) {
			t.Errorf("%d node(s): /metrics counters differ:\n plain   %v\n wrapped %v", nodes, plain.counter, wrapped.counter)
		}
		if !reflect.DeepEqual(plain.renders, wrapped.renders) {
			t.Errorf("%d node(s): diagnosis renders differ", nodes)
		}
		if nodes > 1 && d.times.count("corpus") == 0 {
			t.Errorf("sketch diagnose on the cluster did not fold the corpus through Router.Corpus")
		}
		if d.times.count("put") != 6 {
			t.Errorf("%d node(s): wrapper saw %d puts, want 6", nodes, d.times.count("put"))
		}
	}
}
