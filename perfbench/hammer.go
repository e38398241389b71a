package main

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/modules"
	"repro/internal/rng"
)

// The hammer workloads share one rig: a 2013-class vulnerable module
// with hammer thresholds divided by 50 (as the mitigation experiments
// scale them), on two channels of two banks, templated once. Every leg
// restores the templated state, double-side hammers the same victims
// with the same pair count under its defence and reads them back.
//
// Templating finds 30 to 60 isolated victims depending on the seed
// (45 on average over seeds 0-400), so victimCount stays far enough
// below that for every seed to supply it.
const (
	hammerPattern  = uint64(0xaaaaaaaaaaaaaaaa)
	thresholdScale = 50
	templatePairs  = 3000
	victimCount    = 16
	legPairs       = 32000
)

// mitigatedLegs observe every activation (or, for secded, classify
// every read), so hammering takes the per-access path; bareLegs have
// no defence or a passive one, so it takes the batched path.
var (
	mitigatedLegs = []string{"para", "trr", "cra", "graphene", "twice", "anvil", "secded"}
	bareLegs      = []string{"none", "refx2"}
)

func hammerTopology() dram.Topology {
	return dram.Topology{Channels: 2, Ranks: 1, Geom: dram.Geometry{Banks: 2, Rows: 512, Cols: 8}}
}

// weakCellFraction replaces the chosen module's own weak-cell
// fraction, which spans 30x across the population: the seed then
// varies where the weak cells are and how weak, not how much work a
// pass does.
const weakCellFraction = 6e-4

// benchModule returns the seed population's first vulnerable module of
// 2013, the class the mitigation experiments attack, with
// weakCellFraction and its hammer thresholds divided by thresholdDiv.
func benchModule(seed uint64, thresholdDiv float64) (modules.Module, error) {
	for _, m := range modules.Population(seed) {
		if m.Year == 2013 && m.Vulnerable() {
			m.Vuln.WeakCellFraction = weakCellFraction
			m.Vuln.MinThreshold /= thresholdDiv
			m.Vuln.ThresholdMedian /= thresholdDiv
			return m, nil
		}
	}
	return modules.Module{}, errors.New("population has no vulnerable 2013 module")
}

type leg struct {
	name      string
	sys       *core.System
	snap      []byte // the state every pass of the leg starts from
	observing bool   // an observing mitigation or ECC is attached
	// out and hammerActs are what the last pass simulated: counter
	// deltas from the restored state and the hammer calls'
	// activations.
	out        counts
	hammerActs int64
}

type hammer struct {
	victims []memctrl.Loc
	legs    []*leg
}

func setupHammer(names []string) func(uint64, *tracer, int) (bench, error) {
	return func(seed uint64, tr *tracer, rep int) (bench, error) {
		unit := fmt.Sprintf("setup%d", rep)
		mod, err := benchModule(seed, thresholdScale)
		if err != nil {
			return nil, err
		}
		opt := core.Options{Topology: hammerTopology()}

		sp := tr.begin("core.build", unit)
		base := core.Build(&mod, opt)
		tr.end(sp, 1)
		sp = tr.begin("attack.template", unit)
		found := attack.TemplateVictims(base.Mem, hammerPattern, templatePairs, 1, 0)
		tr.end(sp, int64(len(found)))
		victims := isolated(base, found)
		if len(victims) < victimCount {
			return nil, fmt.Errorf("templating found %d isolated victims, need %d", len(victims), victimCount)
		}
		victims = victims[:victimCount]
		snap, err := save(tr, unit, base)
		if err != nil {
			return nil, err
		}
		h := &hammer{victims: victims}
		src := rng.New(seed ^ 0x8a33e6b1)
		for _, name := range names {
			l, err := newLeg(name, &mod, opt, snap, victims, src.Split(), tr, unit)
			if err != nil {
				return nil, fmt.Errorf("leg %s: %w", name, err)
			}
			h.legs = append(h.legs, l)
		}
		return h, nil
	}
}

// newLeg builds the leg's system, restores the templated state into it
// (except for the secded leg, whose controller keeps ECC state a plain
// snapshot lacks), stripes the victims, attaches the defence and
// snapshots the result.
func newLeg(name string, mod *modules.Module, opt core.Options, base []byte,
	victims []memctrl.Loc, src *rng.Stream, tr *tracer, unit string) (*leg, error) {
	if name == "secded" {
		opt.ECC = memctrl.ECCConfig{Kind: memctrl.ECCSECDED72}
	}
	sp := tr.begin("core.build", unit)
	s := core.Build(mod, opt)
	tr.end(sp, 1)
	if name != "secded" {
		if err := load(tr, unit, s, base); err != nil {
			return nil, err
		}
	}
	stripe(s.Mem, victims)
	flatBanks := opt.Topology.Ranks * opt.Topology.Geom.Banks
	for ch := 0; ch < s.Topo.Channels; ch++ {
		c := s.Mem.Controller(ch)
		threshold := int64(s.Disturbs[ch][0].MinThreshold())
		switch name {
		case "para":
			c.Attach(memctrl.NewPARA(0.01, memctrl.InDRAM, nil, src.Split()))
		case "trr":
			c.Attach(memctrl.NewTRR(8, 0.01, src.Split()))
		case "cra":
			c.Attach(memctrl.NewCRA(threshold, flatBanks, opt.Topology.Geom.Rows))
		case "graphene":
			c.Attach(memctrl.NewGraphene(8, threshold, flatBanks))
		case "twice":
			c.Attach(memctrl.NewTWiCe(threshold, flatBanks))
		case "anvil":
			c.Attach(memctrl.NewANVIL())
		case "refx2":
			c.Attach(memctrl.NewRefreshScaling(2))
		case "none", "secded":
		default:
			return nil, fmt.Errorf("unknown leg %q", name)
		}
	}
	snap, err := save(tr, unit, s)
	if err != nil {
		return nil, err
	}
	return &leg{name: name, sys: s, snap: snap, observing: observing(s.Mem)}, nil
}

// stripe writes the pattern into every victim row and its complement
// into their aggressor rows. Templating leaves victims overwritten by
// the scan of the next row, so each leg re-arms them; victims are
// written last, so a victim next to another keeps the pattern.
func stripe(ms *memctrl.MemorySystem, victims []memctrl.Loc) {
	cols := ms.Topology().Geom.Cols
	write := func(v memctrl.Loc, row int, val uint64) {
		for col := 0; col < cols; col++ {
			ms.AccessLoc(memctrl.Loc{Channel: v.Channel, Rank: v.Rank, Bank: v.Bank, Row: row, Col: col}, true, val)
		}
	}
	for _, v := range victims {
		write(v, v.Row-1, ^hammerPattern)
		write(v, v.Row+1, ^hammerPattern)
	}
	for _, v := range victims {
		write(v, v.Row, hammerPattern)
	}
}

// isolated keeps the victims whose aggressor rows hold no weak cell of
// either fault model, so every hammer call is a pure double-sided
// attack: an aggressor that is itself weak would be attacker and victim
// at once, which the batched kernel declines and hammers access by
// access. A fixed mix of the two paths per seed could not be promised.
func isolated(s *core.System, victims []memctrl.Loc) []memctrl.Loc {
	var out []memctrl.Loc
	for _, v := range victims {
		dev := s.Mem.Device(v.Channel, v.Rank)
		weak := false
		for _, row := range [...]int{v.Row - 1, v.Row + 1} {
			phys := dev.PhysRow(row)
			if s.Disturbs[v.Channel][v.Rank].CellsInRow(v.Bank, phys) > 0 ||
				slices.Contains(s.Retentions[v.Channel][v.Rank].WeakRows(v.Bank), phys) {
				weak = true
			}
		}
		if !weak {
			out = append(out, v)
		}
	}
	return out
}

// observing reports whether any channel has ECC or a mitigation that
// is not passive (passive ones mark themselves with a Passive method).
func observing(ms *memctrl.MemorySystem) bool {
	for ch := 0; ch < ms.Channels(); ch++ {
		c := ms.Controller(ch)
		if c.ECCEnabled() {
			return true
		}
		for _, m := range c.Mitigations() {
			if _, passive := m.(interface{ Passive() }); !passive {
				return true
			}
		}
	}
	return false
}

func (h *hammer) pass(tr *tracer) (meter, []unitResult) {
	var m meter
	units := make([]unitResult, len(h.legs))
	for i, l := range h.legs {
		m.start()
		err := load(tr, l.name, l.sys, l.snap)
		before := counters(l.sys)
		readFlips := 0
		if err == nil {
			l.hammerActs = h.hammerAll(tr, l)
			readFlips = h.readBack(tr, l)
		}
		m.stop()
		l.out = counters(l.sys).minus(before)
		units[i] = unitResult{unit: l.name, digest: systemDigest(l.sys, readFlips), err: err}
		if err == nil {
			units[i].err = l.guard()
		}
	}
	return m, units
}

// hammerAll double-side hammers every victim and returns the
// activations the hammer calls issued.
func (h *hammer) hammerAll(tr *tracer, l *leg) int64 {
	var total int64
	for _, v := range h.victims {
		dev := l.sys.Mem.Device(v.Channel, v.Rank)
		before := dev.Stats.Activates
		sp := tr.begin("memctrl.hammer", l.name)
		l.sys.Mem.Controller(v.Channel).HammerPairsRanked(v.Rank, v.Bank, v.Row-1, v.Row+1, legPairs)
		acts := dev.Stats.Activates - before
		tr.end(sp, acts)
		total += acts
	}
	return total
}

// readBack reads every word of every victim row and counts the bits
// that differ from the pattern.
func (h *hammer) readBack(tr *tracer, l *leg) int {
	cols := l.sys.Topo.Geom.Cols
	flips := 0
	for _, v := range h.victims {
		sp := tr.begin("memctrl.readback", l.name)
		for col := 0; col < cols; col++ {
			v.Col = col
			got, _ := l.sys.Mem.AccessLoc(v, false, 0)
			flips += bits.OnesCount64(got ^ hammerPattern)
		}
		tr.end(sp, int64(cols))
	}
	return flips
}

// guard fails a leg that stopped exercising its layer: bare legs must
// flip bits, counter and sampler legs must refresh, and the secded leg
// must classify words.
func (l *leg) guard() error {
	switch l.name {
	case "none", "refx2":
		if l.out.flips == 0 {
			return errors.New("vacuity: no bit flipped")
		}
	case "secded":
		if e := l.out.ctrl; e.ECCCorrected+e.ECCDetected+e.ECCSilent == 0 {
			return errors.New("vacuity: ECC classified no word")
		}
	default:
		if l.out.ctrl.MitRefreshes == 0 {
			return errors.New("vacuity: the mitigation issued no refresh")
		}
	}
	return nil
}

func (h *hammer) simWork() (acts, accesses int64) {
	for _, l := range h.legs {
		acts += l.out.dev.Activates
		accesses += l.out.ctrl.Accesses
	}
	return acts, accesses
}

func (h *hammer) layerMetrics(setup, passes []span, _ int) map[string]float64 {
	out := setupMetrics(setup)
	var total []counts
	var hammerActs, observedActs int64
	for _, l := range h.legs {
		t := summarize(perWork(named(passes, "memctrl.hammer", l.name)))
		p := "memctrl.hammer." + l.name
		out[p+".ns_per_act"] = t.median
		out[p+".ns_per_act.tail"] = t.tail
		out["memctrl.hammer.n"] = float64(t.n)
		out[p+".acts"] = float64(l.out.dev.Activates)
		out[p+".mit_refreshes"] = float64(l.out.ctrl.MitRefreshes)
		out["disturb."+l.name+".flips"] = float64(l.out.flips)
		total = append(total, l.out)
		hammerActs += l.hammerActs
		if l.observing {
			observedActs += l.hammerActs
		}
	}
	out["memctrl.observed_hammer_share"] = float64(observedActs) / float64(hammerActs)
	addTiming(out, "memctrl.readback.ns_per_read", perWork(named(passes, "memctrl.readback", "")))
	addTiming(out, "snapshot.load_s", seconds(named(passes, "snapshot.load", "")))
	addCounters(out, total)
	return out
}
