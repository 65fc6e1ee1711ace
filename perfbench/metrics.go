package main

import (
	"math"
	"sort"
	"strings"

	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
)

// metricSpec names one reported metric, its unit, and which direction
// is better; BENCHMARK.json lists the same names.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, in report order.
var endToEnd = []metricSpec{
	{"cpu_s", "s", "lower"},
	{"allocs_per_cpu_s", "1/s", "higher"},
	{"run_cpu_ms_p50", "ms", "lower"},
	{"run_cpu_ms_tail", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// gcPhases are the collector phase spans reported per layer, by metric
// stem; the pause spans' own self time is reported as gc.pause.
var gcPhases = []struct {
	stem   string
	phases []trace.Phase
}{
	{"root_scan", []trace.Phase{trace.PhaseRootScan}},
	{"mark", []trace.Phase{trace.PhaseMark}},
	{"sweep", []trace.Phase{trace.PhaseSweep}},
	{"cheney_forward", []trace.Phase{trace.PhaseCheneyForward}},
	{"nursery_scan", []trace.Phase{trace.PhaseNurseryScan}},
	{"compact_select", []trace.Phase{trace.PhaseCompactSelect}},
	{"failsafe", []trace.Phase{trace.PhaseFailSafe}},
	{"pause", []trace.Phase{trace.PhasePauseNursery, trace.PhasePauseFull, trace.PhasePauseCompact}},
}

// reportedCounter reports whether a trace counter is a graph-determined
// count worth reporting: the sweep runner's, telemetry's and trace
// recording's counters never move here, and the mark engine's
// scheduling counters depend on goroutine interleaving.
func reportedCounter(c trace.Counter) bool {
	name := c.String()
	switch c {
	case trace.CMarkSteals, trace.CMarkStealFails, trace.CMarkTermRounds,
		trace.CWorkloadEventsRecorded, trace.CWorkloadBlocksWritten:
		return false
	}
	return !strings.HasPrefix(name, "runner_") && !strings.HasPrefix(name, "telemetry_")
}

// perLayer lists the traced run's metrics, in report order.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"mutator.step_self_s", "s", "lower"},
		{"mutator.ns_per_alloc", "ns", "lower"},
	}
	for _, g := range gcPhases {
		specs = append(specs,
			metricSpec{"gc." + g.stem + "_s", "s", "lower"},
			metricSpec{"gc." + g.stem + "_calls", "count", "lower"})
	}
	specs = append(specs,
		metricSpec{"core.eviction_scheduled_s", "s", "lower"},
		metricSpec{"core.eviction_scheduled_calls", "count", "lower"},
		metricSpec{"core.page_reloaded_s", "s", "lower"},
		metricSpec{"core.page_reloaded_calls", "count", "lower"},
		metricSpec{"core.us_per_eviction_notice", "us", "lower"})
	for _, l := range shareLayers {
		specs = append(specs, metricSpec{"host_share." + l, "frac", "lower"})
	}
	specs = append(specs,
		metricSpec{"mutator.allocs", "count", "higher"},
		metricSpec{"mutator.alloc_mb", "MB", "higher"},
		metricSpec{"gc.nursery_gcs", "count", "lower"},
		metricSpec{"gc.full_gcs", "count", "lower"},
		metricSpec{"gc.compactions", "count", "lower"},
		metricSpec{"gc.pause_sim_s", "s", "lower"},
		metricSpec{"core.bookmarked", "count", "lower"},
		metricSpec{"core.pages_evicted", "count", "lower"},
		metricSpec{"core.failsafe", "count", "lower"},
		metricSpec{"vmm.minor_faults", "count", "lower"},
		metricSpec{"vmm.major_faults", "count", "lower"},
		metricSpec{"vmm.evictions", "count", "lower"},
		metricSpec{"vmm.discards", "count", "higher"},
		metricSpec{"vmm.prot_faults", "count", "lower"},
		metricSpec{"vmm.discard_ratio", "frac", "higher"},
		metricSpec{"sim.elapsed_s", "s", "lower"},
		metricSpec{"fleet.cascades", "count", "lower"},
		metricSpec{"fleet.arbiter_vetoes", "count", "lower"},
		metricSpec{"fleet.fairness", "frac", "higher"})
	for c := trace.Counter(0); int(c) < trace.NumCounters; c++ {
		if reportedCounter(c) {
			unit := "count"
			if strings.HasSuffix(c.String(), "_bytes") {
				unit = "B"
			}
			specs = append(specs, metricSpec{"counters." + c.String(), unit, "lower"})
		}
	}
	return append(specs, metricSpec{"trace_overhead_frac", "frac", "lower"})
}

// simCounts are a job's exact simulated outcomes: the work-done base of
// every host-time ratio. A fleet sums its tenants.
type simCounts struct {
	allocs, allocBytes                      uint64
	nurseryGCs, fullGCs, compactions        uint64
	pauseSimS                               float64
	bookmarked, pagesEvicted, failsafe      uint64
	minor, major, evictions, discards, prot uint64
	elapsedS                                float64
	fleets, cascades                        int
	vetoes                                  uint64
	fairness                                float64 // summed over fleets
}

func (c *simCounts) addRun(r sim.Result) {
	c.allocs += r.Mutator.Allocations
	c.allocBytes += r.Mutator.AllocatedBytes
	g, p := r.GCStats, r.ProcStats
	c.nurseryGCs += g.Nursery
	c.fullGCs += g.Full
	c.compactions += g.Compactions
	c.pauseSimS += r.Timeline.TotalPause().Seconds()
	c.bookmarked += g.Bookmarked
	c.pagesEvicted += g.PagesEvicted
	c.failsafe += g.FailSafe
	c.minor += p.MinorFaults
	c.major += p.MajorFaults
	c.evictions += p.Evictions
	c.discards += p.Discards
	c.prot += p.ProtFaults
}

func (c *simCounts) add(o simCounts) {
	c.allocs += o.allocs
	c.allocBytes += o.allocBytes
	c.nurseryGCs += o.nurseryGCs
	c.fullGCs += o.fullGCs
	c.compactions += o.compactions
	c.pauseSimS += o.pauseSimS
	c.bookmarked += o.bookmarked
	c.pagesEvicted += o.pagesEvicted
	c.failsafe += o.failsafe
	c.minor += o.minor
	c.major += o.major
	c.evictions += o.evictions
	c.discards += o.discards
	c.prot += o.prot
	c.elapsedS += o.elapsedS
	c.fleets += o.fleets
	c.cascades += o.cascades
	c.vetoes += o.vetoes
	c.fairness += o.fairness
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs with at least ten
// values beyond it, and its percentile. With fewer than eleven values no
// such statistic exists, and it returns the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
