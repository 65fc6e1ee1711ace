package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bookmarkgc/internal/sim"
)

// runText is the canonical text of one simulated run's outputs: the
// simulated clock, every gc.Stats count, the pause count and total,
// every vmm.ProcStats field, the mutator's work and checksum, and the
// error. Host time never enters it.
func runText(r sim.Result) string {
	g, p, m := r.GCStats, r.ProcStats, r.Mutator
	errText := ""
	if r.Err != nil {
		errText = r.Err.Error()
	}
	return fmt.Sprintf("elapsed_ns=%d gc=%d/%d/%d/%d/%d/%d/%d/%d pauses=%d/%d proc=%d/%d/%d/%d/%d/%d mut=%d/%d/%016x err=%q",
		int64(r.Timeline.Elapsed()),
		g.BytesAlloc, g.ObjectsAlloc, g.Nursery, g.Full, g.Compactions, g.Bookmarked, g.PagesEvicted, g.FailSafe,
		len(r.Timeline.Pauses), int64(r.Timeline.TotalPause()),
		p.MinorFaults, p.MajorFaults, p.Evictions, p.Discards, p.ProtFaults, p.PeakResident,
		m.Allocations, m.AllocatedBytes, m.Checksum, errText)
}

// fleetText extends runText to a fleet: every tenant's text, then the
// ladder's and arbiter's outcomes.
func fleetText(fr sim.FleetResult) string {
	var b strings.Builder
	for i, t := range fr.Tenants {
		fmt.Fprintf(&b, "tenant %d %s: %s\n", i, fr.Names[i], runText(t))
	}
	errText := ""
	if fr.Err != nil {
		errText = fr.Err.Error()
	}
	fmt.Fprintf(&b, "fleet policy=%s->%s cascades=%d escalated=%t vetoes=%d faults=%d/%d evictions=%d elapsed=%s fairness=%s err=%q",
		fr.InitialPolicy, fr.Policy, fr.Cascades, fr.Escalated, fr.ArbiterVetoes,
		fr.AggMinorFaults, fr.AggMajorFaults, fr.AggEvictions,
		strconv.FormatFloat(fr.ElapsedSecs, 'g', -1, 64),
		strconv.FormatFloat(fr.Fairness, 'g', -1, 64), errText)
	return b.String()
}

// digestOf hashes a canonical text to 16 hex digits.
func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// digestFile is the committed record of expected digests: for each
// workload, the scale it was recorded at and, per seed, each job's
// digest by job name.
type digestFile struct {
	Schema    string                      `json:"schema"`
	Workloads map[string]*workloadDigests `json:"workloads"`
}

type workloadDigests struct {
	Scale float64                      `json:"scale"`
	Seeds map[string]map[string]string `json:"seeds"`
}

const digestSchema = "perfbench-digests/v1"

func loadDigests(path string) (*digestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if f.Schema != digestSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, digestSchema)
	}
	return &f, nil
}

// expected returns the recorded digests of w's jobs at seed, or nil when
// that seed was not recorded. A recorded seed must cover every job, at
// the scale the workload runs at now.
func (f *digestFile) expected(w workloadDef, seed int64, jobs []job) (map[string]string, error) {
	wd := f.Workloads[w.name]
	if wd == nil {
		return nil, fmt.Errorf("digest file has no workload %q", w.name)
	}
	if wd.Scale != w.scale {
		return nil, fmt.Errorf("digests for %q were recorded at scale %g, workload runs at %g", w.name, wd.Scale, w.scale)
	}
	want := wd.Seeds[strconv.FormatInt(seed, 10)]
	if want == nil {
		return nil, nil
	}
	for _, j := range jobs {
		if _, ok := want[j.name]; !ok {
			return nil, fmt.Errorf("digest file lacks %s/%s at seed %d", w.name, j.name, seed)
		}
	}
	if len(want) != len(jobs) {
		return nil, fmt.Errorf("digest file has %d %s jobs at seed %d, workload has %d", len(want), w.name, seed, len(jobs))
	}
	return want, nil
}
