package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyScale shrinks every workload so each test runs in seconds.
const tinyScale = 0.02

// sampleJobs picks a spread of every workload's jobs at tiny scale:
// single runs with and without pressure, BC and every other collector,
// and a fleet whose ladder escalates.
func sampleJobs(t *testing.T) []job {
	t.Helper()
	pick := map[string][]string{
		"nopressure": {"jess/BC", "javac/GenMS", "db/GenCopy", "raytrace/CopyMS", "jack/MarkSweep", "pseudojbb/SemiSpace"},
		"pressure":   {"avail40/130MB/BC", "avail30/100MB/BC", "avail30/130MB/GenMS", "avail40/80MB/SemiSpace", "avail30/130MB/CopyMS"},
		"fleet":      {"lru+ladder"},
	}
	var jobs []job
	for _, w := range workloads {
		for _, j := range w.build(1, tinyScale) {
			for _, name := range pick[w.name] {
				if j.name == name {
					jobs = append(jobs, j)
				}
			}
		}
	}
	if n := len(pick["nopressure"]) + len(pick["pressure"]) + len(pick["fleet"]); len(jobs) != n {
		t.Fatalf("picked %d jobs, want %d", len(jobs), n)
	}
	return jobs
}

func mustRun(t *testing.T, j job, l *ledger) outcome {
	t.Helper()
	o := execute(j, l, nil)
	if o.err != nil {
		t.Fatalf("%s: %v", j.name, o.err)
	}
	return o
}

// Two in-process repetitions give identical digests, so the slab pool
// recycled between runs carries nothing from one run into the next.
func TestRepetitionsIdentical(t *testing.T) {
	for _, j := range sampleJobs(t) {
		a, b := mustRun(t, j, nil), mustRun(t, j, nil)
		if a.digest != b.digest {
			t.Errorf("%s: repeated run digest %s, first %s", j.name, b.digest, a.digest)
		}
	}
}

// Output is bit-identical for any mark-worker count.
func TestMarkWorkersIdentical(t *testing.T) {
	for _, j := range sampleJobs(t) {
		one := mustRun(t, j, nil)
		two := j
		if j.run != nil {
			cfg := *j.run
			cfg.MarkWorkers = 2
			two.run = &cfg
		} else {
			cfg := *j.fleet
			cfg.MarkWorkers = 2
			two.fleet = &cfg
		}
		if got := mustRun(t, two, nil); got.digest != one.digest {
			t.Errorf("%s: 2 mark workers digest %s, 1 worker %s", j.name, got.digest, one.digest)
		}
	}
}

// The host-time seams observe only: a traced run's digest equals the
// untraced one, its spans balance, and every layer seam saw traffic.
func TestTracedMatchesUntraced(t *testing.T) {
	var sawEvict bool
	for _, j := range sampleJobs(t) {
		plain := mustRun(t, j, nil)
		l := &ledger{}
		traced := mustRun(t, j, l)
		if traced.digest != plain.digest {
			t.Errorf("%s: traced digest %s, untraced %s", j.name, traced.digest, plain.digest)
		}
		if !l.balanced() {
			t.Errorf("%s: spans unbalanced: %d open, %d mismatched", j.name, len(l.stack), l.unbalanced)
		}
		if l.calls[spanStep] == 0 {
			t.Errorf("%s: no mutator steps timed", j.name)
		}
		sawEvict = sawEvict || l.calls[spanEvict] > 0
	}
	if !sawEvict {
		t.Error("no eviction notice reached the handler spy on any pressured job")
	}
}

// The committed digest file parses and covers every job of every
// workload at the default seed, at the scale each workload runs at.
func TestDigestFileCoversWorkloads(t *testing.T) {
	f, err := loadDigests(filepath.Join("testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want, err := f.expected(w, 1, w.build(1, w.scale))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			t.Errorf("%s: seed 1 not recorded", w.name)
		}
	}
}

// A digest that does not match fails the run: a corrupted expectation
// must make the benchmark report incorrect output.
func TestCorruptDigestFails(t *testing.T) {
	w := workloadDef{name: "fleet", scale: tinyScale, build: fleetJobs}
	rec := checker{seen: map[string]string{}, sums: map[string]uint64{}}
	for _, j := range w.build(1, w.scale) {
		rec.check(j, execute(j, nil, nil), false)
	}
	if !rec.ok() {
		t.Fatalf("recording failed: %v", rec.problems)
	}
	file := func(digests map[string]string) *digestFile {
		return &digestFile{Schema: digestSchema, Workloads: map[string]*workloadDigests{
			w.name: {Scale: w.scale, Seeds: map[string]map[string]string{"1": digests}},
		}}
	}
	good := &bench{w: w, seed: 1, budget: time.Nanosecond}
	if err := good.run(file(rec.seen)); err != nil {
		t.Fatal(err)
	}
	if !good.chk.ok() {
		t.Fatalf("matching digests failed: %v", good.chk.problems)
	}

	bad := map[string]string{}
	for k, v := range rec.seen {
		bad[k] = v
	}
	bad["cooperative"] = "0000000000000000"
	b := &bench{w: w, seed: 1, budget: time.Nanosecond}
	if err := b.run(file(bad)); err != nil {
		t.Fatal(err)
	}
	if b.chk.ok() || b.chk.failed == 0 {
		t.Fatal("a corrupted expected digest did not fail the run")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer())
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bookmarkgc/internal/mem.(*Space).ReadWordPair":                        "mem",
		"bookmarkgc/internal/mutator.(*Run).Step":                              "mutator",
		"bookmarkgc/internal/gc.(*Deque[go.shape.uint32]).Push":                "gc",
		"math/rand.(*Rand).Int31n":                                             "math_rand",
		"runtime.mallocgc":                                                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                               "runtime",
		"slices.pdqsortCmpFunc[go.shape.struct { bookmarkgc/internal/vmm.x }]": "other",
		"bookmarkgc/internal/metrics.(*Timeline).Record":                       "other",
		"main.tracedWorkload.Step":                                             "other",
		"":                                                                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 54)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 43 || pct != 100*44.0/54 {
		t.Errorf("tail of 0..53 = %v at p%v, want 43 at p%v", v, pct, 100*44.0/54)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 values = %v at p%v, want the maximum", v, pct)
	}
}
