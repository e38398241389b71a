package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The traffic workload exercises the ordinary access path: row hits,
// ECC encode and decode, XOR mapping decode, the refresh engine with
// patrol scrubbing, and retention decay, with almost no hammering.
const (
	mixedAccesses = 1 << 17
	zipfTheta     = 0.99
	// randomWrites is the write share of the uniform half of the mix,
	// so about 30% of mixed accesses are writes.
	randomWrites = 0.6
	scrubWords   = 4
	idleWindows  = 2
	idleSteps    = 128
	chunk        = 256 // accesses per span
)

var trafficPhases = []string{"fill", "mixed", "idle", "verify"}

// trafficTopology is small enough for a pass to fill and verify every
// word. With 256 rows a REF covers one row per bank, so each row is
// refreshed 32 times per retention window and no cell of the default
// retention model decays: retention.decays reads 0 on this workload.
func trafficTopology() dram.Topology {
	return dram.Topology{Channels: 2, Ranks: 2, Geom: dram.Geometry{Banks: 2, Rows: 256, Cols: 16}}
}

type traffic struct {
	sys   *core.System
	snap  []byte
	fill  []uint64              // word i's fill value (address 8*i)
	mixed []workload.FlatAccess // the replayed mix
	reads []uint64              // the value each mixed read must return
	final []uint64              // every word's value after the mix
	out   []counts              // per phase, from the last pass
	// simLatency is the simulated latency summed over mixed accesses.
	simLatency dram.Time
}

func setupTraffic(seed uint64, tr *tracer, rep int) (bench, error) {
	unit := fmt.Sprintf("setup%d", rep)
	mod, err := benchModule(seed, 1)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("core.build", unit)
	s := core.Build(&mod, core.Options{
		Topology: trafficTopology(),
		Mapping:  "xor",
		ECC:      memctrl.ECCConfig{Kind: memctrl.ECCSECDED72},
	})
	src := rng.New(seed ^ 0x7ea1f1c5)
	for ch := 0; ch < s.Topo.Channels; ch++ {
		s.Mem.Controller(ch).Attach(memctrl.NewPARA(0.001, memctrl.InDRAM, nil, src.Split()))
		s.Mem.Controller(ch).Attach(memctrl.NewScrubber(scrubWords))
	}
	tr.end(sp, 1)
	snap, err := save(tr, unit, s)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("workload.gen", unit)
	t := &traffic{sys: s, snap: snap, out: make([]counts, len(trafficPhases))}
	policy := s.Mem.Policy()
	words := int(policy.Bytes() / 8)
	t.fill = make([]uint64, words)
	for i := range t.fill {
		t.fill[i] = src.Uint64()
	}
	mix := workload.NewFlatMix("zipf+random", src.Split(), []workload.FlatGenerator{
		workload.NewFlatZipfRows(policy, zipfTheta, src.Split()),
		workload.NewFlatRandom(policy, randomWrites, src.Split()),
	}, []float64{1, 1})
	t.final = append([]uint64(nil), t.fill...)
	t.mixed = make([]workload.FlatAccess, mixedAccesses)
	for i := range t.mixed {
		a := mix.NextFlat()
		t.mixed[i] = a
		if a.Write {
			t.final[a.Addr/8] = a.Data
		} else {
			t.reads = append(t.reads, t.final[a.Addr/8])
		}
	}
	tr.end(sp, int64(words+mixedAccesses))
	return t, nil
}

func (t *traffic) pass(tr *tracer) (meter, []unitResult) {
	var m meter
	units := make([]unitResult, len(trafficPhases))
	m.start()
	err := load(tr, "pass", t.sys, t.snap)
	m.stop()
	for i, phase := range trafficPhases {
		before := counters(t.sys)
		var result any
		m.start()
		if err == nil {
			result, err = t.run(tr, phase)
		}
		m.stop()
		t.out[i] = counters(t.sys).minus(before)
		units[i] = unitResult{unit: phase, digest: systemDigest(t.sys, result), err: err}
	}
	return m, units
}

// run executes one phase and returns the result it checks and pins.
func (t *traffic) run(tr *tracer, phase string) (any, error) {
	ms := t.sys.Mem
	switch phase {
	case "fill":
		for i := 0; i < len(t.fill); i += chunk {
			sp := tr.begin("memctrl.access", phase)
			for j := i; j < i+chunk && j < len(t.fill); j++ {
				ms.Access(uint64(j)*8, true, t.fill[j])
			}
			tr.end(sp, int64(min(chunk, len(t.fill)-i)))
		}
		return len(t.fill), nil
	case "mixed":
		var lat dram.Time
		wrong, r := 0, 0
		for i := 0; i < len(t.mixed); i += chunk {
			sp := tr.begin("memctrl.access", phase)
			for _, a := range t.mixed[i:min(i+chunk, len(t.mixed))] {
				got, l := ms.Access(a.Addr, a.Write, a.Data)
				lat += l
				if !a.Write {
					if got != t.reads[r] {
						wrong++
					}
					r++
				}
			}
			tr.end(sp, int64(min(chunk, len(t.mixed)-i)))
		}
		t.simLatency = lat
		if r == 0 || r == len(t.mixed) {
			return nil, errors.New("vacuity: the mix has no reads or no writes")
		}
		return fmt.Sprintf("reads=%d wrong=%d latency=%d", r, wrong, lat), nil
	case "idle":
		window := ms.Controller(0).RetentionWindow()
		start := ms.Now()
		refs, total := ms.AggregateStats().AutoRefreshes, int64(0)
		for k := 1; k <= idleSteps; k++ {
			sp := tr.begin("memctrl.advance", phase)
			ms.AdvanceAllTo(start + window*idleWindows*dram.Time(k)/idleSteps)
			now := ms.AggregateStats().AutoRefreshes
			tr.end(sp, now-refs)
			total += now - refs
			refs = now
		}
		if total == 0 {
			return nil, errors.New("vacuity: idle issued no refresh")
		}
		return nil, nil
	case "verify":
		wrong, reads := 0, 0
		for i := 0; i < len(t.final); i += chunk {
			sp := tr.begin("memctrl.access", phase)
			for j := i; j < i+chunk && j < len(t.final); j++ {
				if got, _ := ms.Access(uint64(j)*8, false, 0); got != t.final[j] {
					wrong++
				}
				reads++
			}
			tr.end(sp, int64(min(chunk, len(t.final)-i)))
		}
		// fill writes every word, so verify must read every word.
		if reads != len(t.fill) {
			return nil, fmt.Errorf("vacuity: verify read %d of %d written words", reads, len(t.fill))
		}
		return fmt.Sprintf("words=%d wrong=%d", reads, wrong), nil
	}
	return nil, fmt.Errorf("unknown phase %q", phase)
}

func (t *traffic) simWork() (acts, accesses int64) {
	for _, o := range t.out {
		acts += o.dev.Activates
		accesses += o.ctrl.Accesses
	}
	return acts, accesses
}

func (t *traffic) layerMetrics(setup, passes []span, _ int) map[string]float64 {
	out := setupMetrics(setup)
	for _, phase := range []string{"fill", "mixed", "verify"} {
		addTiming(out, "memctrl."+phase+".ns_per_access", perWork(named(passes, "memctrl.access", phase)))
	}
	addTiming(out, "memctrl.idle.ns_per_ref", perWork(named(passes, "memctrl.advance", "idle")))
	addTiming(out, "snapshot.load_s", seconds(named(passes, "snapshot.load", "")))
	out["memctrl.sim_latency_ns"] = float64(t.simLatency) / float64(len(t.mixed))
	addCounters(out, t.out)
	return out
}
