// Command perfbench is the simulator's benchmark. It runs one named
// workload of simulations in-process through sim.Run / sim.RunFleet,
// times every simulation on the host, checks every simulated output
// against a digest, and prints the metrics as one JSON line.
//
//	perfbench -workload nopressure|pressure|fleet [-seed N] [-seconds S] [-trace 0|1]
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 each
// simulation also runs a second time with host-time seams installed —
// a wrapping workload source, phase tracer and notification-handler
// spy — under a CPU profile, and it reports the per-layer metrics. Any
// failed simulation, digest mismatch or perturbation by the seams makes
// the command exit 1. See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/workload"
)

// processStart approximates process start: package initialization.
var processStart = time.Now()

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload: nopressure, pressure or fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 10, "host seconds to measure for (at least one full pass runs)")
	traced := fs.Int("trace", 0, "1 = also run every simulation with the host-time seams and report per-layer metrics")
	digestPath := fs.String("digests", "perfbench/testdata/digests.json", "expected-digest file")
	record := fs.String("record", "", "record mode: run every workload once per seed 1..12 and write their digests to this file")
	commit := fs.String("commit", "unknown", "commit the binary was built from, echoed with the host facts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*wlName)
	if err != nil || *secs <= 0 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		fs.Usage()
		return 2
	}
	digests, err := loadDigests(*digestPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*secs * float64(time.Second)), traced: *traced == 1, commit: *commit}
	if err := b.run(digests); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.report(stdout)
	if !b.chk.ok() {
		return 1
	}
	return 0
}

// outcome is one simulation's result, reduced to what the benchmark
// checks and reports.
type outcome struct {
	digest    string
	checksums map[string]uint64 // per checksum group: program, or fleet tenant
	err       error
	counts    simCounts
}

// sources resolves a fleet's per-tenant workload sources the way
// sim.RunFleet does, so each can be wrapped.
func sources(spec sim.FleetSpec) ([]mutator.Source, error) {
	out := make([]mutator.Source, len(spec.Tenants))
	for i, t := range spec.Tenants {
		switch {
		case t.TracePath != "":
			return nil, fmt.Errorf("tenant %d: trace-file tenants are not supported", i)
		case t.Synth != nil:
			s, err := workload.NewSynthSource(*t.Synth)
			if err != nil {
				return nil, err
			}
			out[i] = s
		default:
			out[i] = t.Program
		}
	}
	return out, nil
}

// execute runs one job. With a ledger, the host-time seams are
// installed and ctrs is attached; without, the run is exactly what a
// user of sim.Run / sim.RunFleet gets.
func execute(j job, l *ledger, ctrs *trace.Counters) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o.err = fmt.Errorf("panic: %v", p)
		}
	}()
	o.checksums = map[string]uint64{}
	if j.run != nil {
		cfg := *j.run
		if l != nil {
			cfg.Workload = tracedSource{inner: cfg.Program, l: l}
			cfg.Counters = ctrs
		}
		r := sim.Run(cfg)
		o.digest = digestOf(runText(r))
		o.err = r.Err
		o.checksums[cfg.Program.Name] = r.Mutator.Checksum
		o.counts.addRun(r)
		o.counts.elapsedS = r.Timeline.Elapsed().Seconds()
		return o
	}
	cfg := *j.fleet
	if l != nil {
		srcs, err := sources(cfg.Spec)
		if err != nil {
			o.err = err
			return o
		}
		for i := range srcs {
			srcs[i] = tracedSource{inner: srcs[i], l: l}
		}
		cfg.Workloads = srcs
		cfg.Counters = ctrs
	}
	fr := sim.RunFleet(cfg)
	o.digest = digestOf(fleetText(fr))
	o.err = fr.Err
	for i, t := range fr.Tenants {
		if t.Err != nil && o.err == nil {
			o.err = fmt.Errorf("tenant %s: %w", fr.Names[i], t.Err)
		}
		o.checksums["tenant"+strconv.Itoa(i)] = t.Mutator.Checksum
		o.counts.addRun(t)
	}
	o.counts.elapsedS = fr.ElapsedSecs
	o.counts.fleets = 1
	o.counts.cascades = fr.Cascades
	o.counts.vetoes = fr.ArbiterVetoes
	o.counts.fairness = fr.Fairness
	return o
}

// checker is the output-correctness gate. Every simulation must succeed
// and reproduce the recorded digest (when the seed was recorded), every
// repetition of a job must reproduce its first digest — traced runs
// included, so the seams provably do not perturb the run — and every
// collector must report the same mutator checksum for the same program
// and seed.
type checker struct {
	want      map[string]string // nil when the seed was not recorded
	seen      map[string]string
	sums      map[string]uint64
	attempted int
	failed    int
	problems  []string
}

func (c *checker) fail(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) check(j job, o outcome, traced bool) {
	c.attempted++
	bad := false
	if o.err != nil {
		bad = true
		c.fail("%s: %v", j.name, o.err)
	}
	if c.want != nil && o.digest != c.want[j.name] {
		bad = true
		c.fail("%s: digest %s, expected %s", j.name, o.digest, c.want[j.name])
	}
	if first, ok := c.seen[j.name]; !ok {
		c.seen[j.name] = o.digest
	} else if o.digest != first {
		bad = true
		c.fail("%s: digest %s differs from the first run's %s (traced=%t)", j.name, o.digest, first, traced)
	}
	for k, v := range o.checksums {
		if first, ok := c.sums[k]; !ok {
			c.sums[k] = v
		} else if v != first {
			bad = true
			c.fail("%s: mutator checksum %016x for %s, other runs report %016x", j.name, v, k, first)
		}
	}
	if bad {
		c.failed++
	}
}

func (c *checker) ok() bool { return c.failed == 0 && c.attempted > 0 }

// bench is one benchmark run of one workload.
type bench struct {
	w      workloadDef
	seed   int64
	budget time.Duration
	traced bool

	commit string

	chk   checker
	jobs  []job
	setup []sample

	untraced, tracedT [][]sample // per job, per pass
	cal               []sample
	counts            []simCounts       // per job
	ledgers           []ledger          // per job, summed over traced runs
	ctrs              []*trace.Counters // per job, from its first traced run
	shares            map[string]float64
	profiledS         float64
	passes            int
}

func (b *bench) run(digests *digestFile) error {
	// Set up several times: generate the configurations and run one
	// untimed warm-up simulation — the largest, so the slab pool is full
	// before anything is timed. The first set-up is measured from
	// process start.
	for i := 0; i < setupRepeats; i++ {
		t, c := time.Now(), cpuTime()
		if i == 0 {
			t, c = processStart, 0
		}
		b.jobs = b.w.build(b.seed, b.w.scale)
		if i == 0 {
			want, err := digests.expected(b.w, b.seed, b.jobs)
			if err != nil {
				return err
			}
			b.chk = checker{want: want, seen: map[string]string{}, sums: map[string]uint64{}}
		}
		warm := b.jobs[largestJob(b.jobs)]
		b.chk.check(warm, execute(warm, nil, nil), false)
		b.setup = append(b.setup, sample{wall: time.Since(t), cpu: cpuTime() - c})
	}

	n := len(b.jobs)
	b.untraced = make([][]sample, n)
	b.tracedT = make([][]sample, n)
	b.counts = make([]simCounts, n)
	b.ledgers = make([]ledger, n)
	b.ctrs = make([]*trace.Counters, n)
	var prof bytes.Buffer
	if b.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	start := time.Now()
measure:
	for pass := 0; ; pass++ {
		for i, j := range b.jobs {
			if pass > 0 && time.Since(start) >= b.budget {
				break measure
			}
			var o outcome
			b.cal = append(b.cal, measure(calibrate))
			b.untraced[i] = append(b.untraced[i], measure(func() { o = execute(j, nil, nil) }))
			b.chk.check(j, o, false)
			if pass == 0 {
				b.counts[i] = o.counts
			}
			if !b.traced {
				continue
			}
			l := &ledger{}
			ctrs := trace.NewCounters()
			b.tracedT[i] = append(b.tracedT[i], measure(func() { o = execute(j, l, ctrs) }))
			if !l.balanced() && o.err == nil {
				o.err = fmt.Errorf("trace spans unbalanced: %d open, %d mismatched ends", len(l.stack), l.unbalanced)
			}
			b.chk.check(j, o, true)
			b.ledgers[i].add(l)
			if b.ctrs[i] == nil {
				b.ctrs[i] = ctrs
			}
		}
		b.passes = pass + 1
	}
	if b.traced {
		pprof.StopCPUProfile()
		shares, total, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		b.shares, b.profiledS = shares, total
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (b *bench) report(out io.Writer) {
	var total simCounts
	for _, c := range b.counts {
		total.add(c)
	}
	slow := slowdown(b.cal)
	cpu, meds := sweepSeconds(b.untraced, cpuClock)
	wall, _ := sweepSeconds(b.untraced, wallClock)
	cpu /= slow
	for i := range meds {
		meds[i] /= slow
	}
	setupCPU, setupWall := make([]float64, len(b.setup)), make([]float64, len(b.setup))
	for i, s := range b.setup {
		setupCPU[i], setupWall[i] = s.cpu.Seconds()/slow, s.wall.Seconds()
	}
	tailV, tailPct := tail(meds)
	e2e := map[string]float64{
		"cpu_s":            cpu,
		"allocs_per_cpu_s": finite(float64(total.allocs) / cpu),
		"run_cpu_ms_p50":   1000 * median(meds),
		"run_cpu_ms_tail":  1000 * tailV,
		"peak_rss_mb":      peakRSSMB(),
		"setup_s":          median(setupCPU),
	}

	fmt.Fprintf(out, "perfbench workload=%s seed=%d scale=%g simulations=%d passes=%d budget=%s\n",
		b.w.name, b.seed, b.w.scale, len(b.jobs), b.passes, b.budget)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s commit=%s slowdown=%.3f (calibration kernel: median %.2f ms CPU over %d runs, reference %s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), b.commit,
		slow, 1000*slow*calRef.Seconds(), len(b.cal), calRef)
	fmt.Fprintf(out, "cpu_s            %.4f s    CPU seconds per pass: sum of %d per-simulation medians; raw %.4f s CPU, %.4f s wall\n",
		cpu, len(meds), cpu*slow, wall)
	fmt.Fprintf(out, "allocs_per_cpu_s %.0f 1/s  %d simulated allocations per pass / cpu_s\n", e2e["allocs_per_cpu_s"], total.allocs)
	fmt.Fprintf(out, "run_cpu_ms_p50   %.2f ms   median of %d per-simulation medians\n", e2e["run_cpu_ms_p50"], len(meds))
	fmt.Fprintf(out, "run_cpu_ms_tail  %.2f ms   p%.1f of %d per-simulation medians, %d beyond it\n",
		e2e["run_cpu_ms_tail"], tailPct, len(meds), min(10, len(meds)-1))
	fmt.Fprintf(out, "peak_rss_mb      %.1f MB\n", e2e["peak_rss_mb"])
	fmt.Fprintf(out, "setup_s          %.4f s    median CPU of %d set-ups (the first from process start); raw wall %s s\n",
		e2e["setup_s"], len(b.setup), fmtSeconds(setupWall))
	fmt.Fprintf(out, "failed_frac      %g        %d of %d simulations failed\n",
		float64(b.chk.failed)/float64(max(b.chk.attempted, 1)), b.chk.failed, b.chk.attempted)
	if b.chk.want == nil {
		fmt.Fprintf(out, "digests: seed %d not recorded; checked repeatability, traced = untraced, collector-independent checksums, no errors\n", b.seed)
	} else {
		fmt.Fprintf(out, "digests: every simulation checked against the %d recorded for seed %d\n", len(b.chk.want), b.seed)
	}
	for _, p := range b.chk.problems {
		fmt.Fprintln(out, "FAIL", p)
	}

	var metrics map[string]metricValue
	if b.traced {
		metrics = b.layerMetrics(total)
		fmt.Fprintf(out, "per-layer: host times are wall seconds per pass; host_share from %.1f s of CPU profile samples\n", b.profiledS)
		names := make([]string, 0, len(metrics))
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "  %-42s %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
		}
	} else {
		metrics = map[string]metricValue{}
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	}
	line, _ := json.Marshal(result{
		Correct:   b.chk.ok(),
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   metrics,
	})
	fmt.Fprintln(out, string(line))
}

// layerMetrics assembles the per-layer metrics of a traced run. Host
// times are per pass (each job's mean over its traced runs, summed);
// counts are exact and per pass.
func (b *bench) layerMetrics(total simCounts) map[string]metricValue {
	var self [numSpans]float64
	var calls [numSpans]uint64
	for i, l := range b.ledgers {
		runs := float64(len(b.tracedT[i]))
		for k := range self {
			self[k] += l.self[k].Seconds() / runs
			calls[k] += l.calls[k] / uint64(len(b.tracedT[i]))
		}
	}
	v := map[string]float64{
		"mutator.step_self_s":           self[spanStep],
		"mutator.ns_per_alloc":          finite(1e9 * self[spanStep] / float64(total.allocs)),
		"core.eviction_scheduled_s":     self[spanEvict],
		"core.eviction_scheduled_calls": float64(calls[spanEvict]),
		"core.page_reloaded_s":          self[spanReload],
		"core.page_reloaded_calls":      float64(calls[spanReload]),
		"core.us_per_eviction_notice":   finite(1e6 * self[spanEvict] / float64(calls[spanEvict])),
		"mutator.allocs":                float64(total.allocs),
		"mutator.alloc_mb":              float64(total.allocBytes) / (1 << 20),
		"gc.nursery_gcs":                float64(total.nurseryGCs),
		"gc.full_gcs":                   float64(total.fullGCs),
		"gc.compactions":                float64(total.compactions),
		"gc.pause_sim_s":                total.pauseSimS,
		"core.bookmarked":               float64(total.bookmarked),
		"core.pages_evicted":            float64(total.pagesEvicted),
		"core.failsafe":                 float64(total.failsafe),
		"vmm.minor_faults":              float64(total.minor),
		"vmm.major_faults":              float64(total.major),
		"vmm.evictions":                 float64(total.evictions),
		"vmm.discards":                  float64(total.discards),
		"vmm.prot_faults":               float64(total.prot),
		"vmm.discard_ratio":             finite(float64(total.discards) / float64(total.discards+total.evictions)),
		"sim.elapsed_s":                 total.elapsedS,
		"fleet.cascades":                float64(total.cascades),
		"fleet.arbiter_vetoes":          float64(total.vetoes),
		"fleet.fairness":                finite(total.fairness / float64(total.fleets)),
	}
	for _, g := range gcPhases {
		var s float64
		var c uint64
		for _, p := range g.phases {
			s += self[p]
			c += calls[p]
		}
		v["gc."+g.stem+"_s"] = s
		v["gc."+g.stem+"_calls"] = float64(c)
	}
	for _, l := range shareLayers {
		v["host_share."+l] = b.shares[l]
	}
	for c := trace.Counter(0); int(c) < trace.NumCounters; c++ {
		if !reportedCounter(c) {
			continue
		}
		var sum uint64
		for _, ctrs := range b.ctrs {
			sum += ctrs.Get(c)
		}
		v["counters."+c.String()] = float64(sum)
	}
	untracedCPU, _ := sweepSeconds(b.untraced, cpuClock)
	tracedCPU, _ := sweepSeconds(b.tracedT, cpuClock)
	v["trace_overhead_frac"] = finite(tracedCPU/untracedCPU - 1)

	out := map[string]metricValue{}
	for _, m := range perLayer() {
		out[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
	return out
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// recordedSeeds is how many seeds, from 1, record mode records.
const recordedSeeds = 12

// recordDigests runs every job of every workload once per recorded seed
// and writes their digests. A seed whose simulations fail or disagree on a
// mutator checksum is reported and left unrecorded; the gate then
// applies the checks that hold for any seed, which fail it again.
func recordDigests(path string, log io.Writer) error {
	f := digestFile{Schema: digestSchema, Workloads: map[string]*workloadDigests{}}
	for _, w := range workloads {
		wd := &workloadDigests{Scale: w.scale, Seeds: map[string]map[string]string{}}
		for seed := int64(1); seed <= recordedSeeds; seed++ {
			chk := checker{seen: map[string]string{}, sums: map[string]uint64{}}
			t := time.Now()
			for _, j := range w.build(seed, w.scale) {
				chk.check(j, execute(j, nil, nil), false)
			}
			if !chk.ok() {
				fmt.Fprintf(log, "NOT recorded %s seed %d: %s\n", w.name, seed, strings.Join(chk.problems, "; "))
				continue
			}
			wd.Seeds[strconv.FormatInt(seed, 10)] = chk.seen
			fmt.Fprintf(log, "recorded %s seed %d: %d jobs in %s\n", w.name, seed, len(chk.seen), time.Since(t).Round(time.Millisecond))
		}
		f.Workloads[w.name] = wd
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
