package main

import (
	"fmt"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/sim"
)

// job is one simulation of a workload: a single-JVM run or a fleet run.
// Exactly one of run and fleet is set.
type job struct {
	name  string
	run   *sim.RunConfig
	fleet *sim.FleetConfig
}

// heapBytes is the job's total configured heap — the warm-up picks the
// largest, so the slab pool is filled before anything is timed.
func (j job) heapBytes() uint64 {
	if j.run != nil {
		return j.run.HeapBytes
	}
	var sum uint64
	for _, t := range j.fleet.Spec.Tenants {
		sum += t.HeapBytes
	}
	return sum
}

// workloadDef is one named workload: its scale and its job generator.
type workloadDef struct {
	name  string
	scale float64
	build func(seed int64, scale float64) []job
}

// workloads are the benchmark's workloads, in documentation order. The
// scales size one pass of each to a few host seconds on a 2-core box.
var workloads = []workloadDef{
	{"nopressure", 0.05, noPressureJobs},
	{"pressure", 0.05, pressureJobs},
	{"fleet", 0.05, fleetJobs},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// markWorkers is fixed at one: the benchmark measures the simulator's
// sequential host cost, and output is bit-identical for any value.
const markWorkers = 1

// noPressureCollectors and pressureCollectors follow Figures 2 and 3.
var (
	noPressureCollectors = []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.MarkSweep, sim.SemiSpace}
	pressureCollectors   = []sim.CollectorKind{sim.BC, sim.GenMS, sim.GenCopy, sim.CopyMS, sim.SemiSpace}
)

// noPressureFactor is the heap size relative to each program's scaled
// minimum heap: Figure 2's 2.5x column. At 2.0x SemiSpace runs out of
// memory on javac for some seeds (a copying collector needs room for two
// copies of the live set), and a workload must complete at every seed.
const noPressureFactor = 2.5

// noPressureJobs is one column of Figure 2: every program under every
// collector at noPressureFactor times its scaled minimum heap, with
// physical memory to spare (the same geometry the fig2 experiment
// builds).
func noPressureJobs(seed int64, scale float64) []job {
	var jobs []job
	for _, prog := range mutator.Programs {
		scaled := prog.Scale(scale)
		heap := mem.RoundUpPage(uint64(noPressureFactor * float64(scaled.MinHeap)))
		for _, k := range noPressureCollectors {
			jobs = append(jobs, job{
				name: fmt.Sprintf("%s/%s", prog.Name, k),
				run: &sim.RunConfig{
					Collector:   k,
					Program:     scaled,
					HeapBytes:   heap,
					PhysBytes:   heap*4 + (64 << 20),
					Seed:        seed,
					MarkWorkers: markWorkers,
				},
			})
		}
	}
	return jobs
}

// pressureHeapsMB and pressureAvail are the Figure 3 / 3x geometry the
// pressure workload samples: paper heap sizes in MB (scaled), and the
// share of the heap left available once signalmem has pinned the rest.
var (
	pressureHeapsMB = []int{60, 80, 100, 130}
	pressureAvail   = []float64{0.40, 0.30}
)

// pressureJobs is pseudoJBB under steady signalmem pressure: physical
// memory is twice the heap, and all but availFrac of the heap (plus a
// small slack) is pinned from the start — the fig3 experiment's jobs.
func pressureJobs(seed int64, scale float64) []job {
	prog := mutator.PseudoJBB().Scale(scale)
	scaled := func(b float64) uint64 { return mem.RoundUpPage(uint64(b * scale)) }
	var jobs []job
	for _, avail := range pressureAvail {
		for _, k := range pressureCollectors {
			for _, mb := range pressureHeapsMB {
				heap := scaled(float64(mb) * (1 << 20))
				free := uint64(avail*float64(heap)) + scaled(6<<20)
				phys := heap * 2
				jobs = append(jobs, job{
					name: fmt.Sprintf("avail%.0f/%dMB/%s", avail*100, mb, k),
					run: &sim.RunConfig{
						Collector:   k,
						Program:     prog,
						HeapBytes:   heap,
						PhysBytes:   phys,
						Pressure:    &sim.Pressure{InitialBytes: phys - free},
						Seed:        seed,
						MarkWorkers: markWorkers,
					},
				})
			}
		}
	}
	return jobs
}

// fleetRegimes are the fleet experiment's four arbitration regimes.
var fleetRegimes = []struct {
	name             string
	policy, escalate sim.ArbitrationPolicy
}{
	{"global-lru", sim.PolicyGlobalLRU, ""},
	{"proportional", sim.PolicyProportional, ""},
	{"cooperative", sim.PolicyCooperative, ""},
	{"lru+ladder", sim.PolicyGlobalLRU, sim.PolicyCooperative},
}

// fleetJobs is the stock 16-tenant mixed fleet under each regime, with
// the fleet experiment's chaos seed (seed + 42).
func fleetJobs(seed int64, scale float64) []job {
	var jobs []job
	for _, r := range fleetRegimes {
		spec := sim.DefaultFleetSpec(16, scale, seed, seed+42)
		spec.Policy = r.policy
		spec.EscalateTo = r.escalate
		jobs = append(jobs, job{name: r.name, fleet: &sim.FleetConfig{Spec: spec, MarkWorkers: markWorkers}})
	}
	return jobs
}

// largestJob returns the index of the job with the largest total heap
// (the first on ties).
func largestJob(jobs []job) int {
	best := 0
	for i, j := range jobs {
		if j.heapBytes() > jobs[best].heapBytes() {
			best = i
		}
	}
	return best
}
