package memctrl

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/spd"
)

// Mitigation is a pluggable RowHammer countermeasure. The controller
// invokes OnActivate for every row activation it issues and
// OnAutoRefresh for every REF command; mitigations respond by
// refreshing rows through the controller, which charges their time and
// energy costs to the accounting that the countermeasure-comparison
// experiment (E5) reports.
//
// The bank index a mitigation observes (and hands back to
// RefreshLogRows/RefreshPhysRows/PhysRowAt) is the controller's flat
// rank*Banks+bank index, which equals the plain bank index on
// single-rank channels.
//
// Horizon contract: Controller.HammerPairsRanked batches a hammer sweep
// only up to the first activation at which some mitigation would act.
// Horizon(c, bank, rowA, rowB, n) must return, without changing any
// state, how many of the next n activations alternating rowA, rowB
// (logical rows, rowA first) on the flat bank the mitigation would
// observe without acting — touching the controller, drawing a
// decision that does, or leaving its state in a form the bulk update
// cannot express. ObserveN(c, bank, rowA, rowB, n) is then called with
// n no larger than that horizon and must leave the mitigation in
// exactly the state n OnActivate calls for that sequence would, random
// stream positions included. Passive mitigations return n and observe
// nothing.
type Mitigation interface {
	// Name identifies the mitigation in result tables.
	Name() string
	// OnActivate observes an activation of a logical row.
	OnActivate(c *Controller, bank, logRow int)
	// Horizon returns how many of the next n alternating rowA/rowB
	// activations the mitigation observes without acting.
	Horizon(c *Controller, bank, rowA, rowB, n int) int
	// ObserveN applies n alternating rowA/rowB activations within the
	// horizon.
	ObserveN(c *Controller, bank, rowA, rowB, n int)
	// OnAutoRefresh observes one REF command.
	OnAutoRefresh(c *Controller)
	// StorageBits returns the mitigation's hardware state cost,
	// the axis on which the paper rejects the counter-based solution.
	StorageBits() int64
}

// Placement says where PARA logic lives, which determines what
// adjacency information it has. The paper discusses all three.
type Placement int

const (
	// InController without SPD info: the controller must assume
	// logical addresses are physically adjacent, which internal
	// remapping breaks.
	InController Placement = iota
	// InControllerWithSPD: the controller reads the module's SPD
	// adjacency blob (the ISCA 2014 proposal) and refreshes true
	// physical neighbours.
	InControllerWithSPD
	// InDRAM (or in the logic layer of a 3D-stacked device): the
	// device knows its own topology natively.
	InDRAM
)

// String names the placement for result tables.
func (p Placement) String() string {
	switch p {
	case InController:
		return "controller(no-SPD)"
	case InControllerWithSPD:
		return "controller+SPD"
	case InDRAM:
		return "in-DRAM"
	default:
		return "unknown"
	}
}

// PARA implements Probabilistic Adjacent Row Activation: on each
// activation, each side of the activated row is refreshed with
// probability P/2, out to Radius physical rows. No per-row state is
// kept; the paper's argument for PARA is exactly this statelessness.
//
// Blast-radius contract: the disturbance model couples aggressors to
// victims up to two physical rows away (distance-2 coupling, weaker
// but real), so a complete PARA must refresh out to Radius 2 —
// NewPARA's default, and the configuration every experiment and
// overhead number in this repository refers to unless it says
// otherwise. Radius 1 is the literal ISCA 2014 formulation; it leaves
// the distance-2 victim population exposed and exists only as an
// explicit ablation knob (E26). TestPARABlastRadiusContract pins both
// halves of this contract.
type PARA struct {
	// P is the total neighbour-refresh probability per activation.
	P float64 `snapshot:"config"`
	// Where determines the adjacency knowledge available.
	Where Placement `snapshot:"config"`
	// Oracle is required for InControllerWithSPD.
	Oracle *spd.AdjacencyOracle `snapshot:"config"`
	// Radius is how many rows on each side a triggered refresh
	// covers; see the blast-radius contract above.
	Radius int `snapshot:"config"`

	src *rng.Stream
	// ahead memoizes Horizon's lookahead for ObserveN. It states a fact
	// about the stream (2n draws from one state reach another), so it
	// is never stale, only unused.
	ahead paraLookahead `snapshot:"derived"`
}

// paraLookahead records that 2n side draws from stream state from
// reach state to.
type paraLookahead struct {
	from, to rng.State
	n        int
}

// NewPARA builds a PARA instance with its own random stream and the
// full blast radius of 2 (the blast-radius contract; see PARA).
func NewPARA(p float64, where Placement, oracle *spd.AdjacencyOracle, src *rng.Stream) *PARA {
	return &PARA{P: p, Where: where, Oracle: oracle, Radius: 2, src: src}
}

// Name implements Mitigation.
func (p *PARA) Name() string { return "PARA@" + p.Where.String() }

// OnActivate implements Mitigation.
func (p *PARA) OnActivate(c *Controller, bank, logRow int) {
	radius := p.Radius
	if radius < 1 {
		radius = 1
	}
	for side := 0; side < 2; side++ {
		if !p.src.Bool(p.P / 2) {
			continue
		}
		dir := 1
		if side == 0 {
			dir = -1
		}
		switch p.Where {
		case InDRAM:
			phys := c.PhysRowAt(bank, logRow)
			for d := 1; d <= radius; d++ {
				c.RefreshPhysRows(bank, []int{phys + dir*d})
			}
		case InControllerWithSPD:
			// The oracle returns logical rows whose physical rows
			// neighbour ours; refresh the ones on this side. The oracle
			// is built from the rank-0 remap; multi-rank systems attach
			// per-channel in-DRAM PARA instead.
			phys := c.PhysRowAt(bank, logRow)
			for d := 1; d <= radius; d++ {
				for _, n := range p.Oracle.NeighborsOf(logRow, d) {
					if c.PhysRowAt(bank, n)-phys == dir*d {
						c.RefreshLogRows(bank, []int{n})
					}
				}
			}
		default: // InController without SPD: assume logical adjacency
			for d := 1; d <= radius; d++ {
				c.RefreshLogRows(bank, []int{logRow + dir*d})
			}
		}
	}
}

// Horizon implements Mitigation: PARA acts at the first activation
// whose pair of side draws fires, found on a copy of its stream. It
// caches the stream state at the last pair boundary it drew past, so
// ObserveN can jump there instead of drawing again.
func (p *PARA) Horizon(c *Controller, bank, rowA, rowB, n int) int {
	side := p.P / 2
	switch {
	case side <= 0:
		return n // Bool never fires and draws nothing
	case side >= 1:
		return 0
	}
	from := p.src.State()
	var s rng.Stream
	s.SetState(from)
	// Two side draws per activation; a pair is four.
	j := s.BoolRun(rng.BoolCut(side), 2*n, 4)
	p.ahead = paraLookahead{from: from, to: s.State(), n: j / 4 * 2}
	return j / 2
}

// ObserveN implements Mitigation: advance the stream past the horizon's
// side draws, one Uint64 per Bool, none of which fires. When Horizon
// drew exactly these from the current state, jump to where it stopped;
// otherwise draw them again.
func (p *PARA) ObserveN(c *Controller, bank, rowA, rowB, n int) {
	if p.P <= 0 {
		return
	}
	if n == p.ahead.n && p.src.State() == p.ahead.from {
		p.src.SetState(p.ahead.to)
		return
	}
	for i := 0; i < 2*n; i++ {
		p.src.Uint64()
	}
}

// OnAutoRefresh implements Mitigation (PARA needs no refresh hook).
func (p *PARA) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: PARA is stateless.
func (p *PARA) StorageBits() int64 { return 0 }

// CRA implements the counter-based approach the paper attributes to
// Kim et al. (IEEE CAL 2015): one activation counter per row; when a
// row's count within a refresh window reaches half the safe threshold
// (rounded up: the smallest count that is at least Threshold/2), its
// neighbours are refreshed and the counter resets. Exact — no
// vulnerability window — but the counter table is the large hardware
// cost the paper criticizes.
//
// Counters reset once per retention window, the CAL 2015 letter's
// cadence: within tREFW every row's charge is restored, so no pressure
// — and no count — may span two windows. The window length in REF
// commands depends on the controller's refresh config: at a refresh
// multiplier m the controller issues m×8192 REF commands per nominal
// window, so the old hardcoded 8192 silently shrank the window m-fold
// whenever CRA was combined with refresh-rate scaling. Never resetting
// early is the conservative direction — a stale counter fires extra
// refreshes, never fewer.
type CRA struct {
	// Threshold is the device's minimum hammer count; neighbours are
	// refreshed when a counter reaches ceil(Threshold/2).
	Threshold int64 `snapshot:"config"`
	// CounterBits sizes each counter for the storage estimate.
	CounterBits int `snapshot:"config"`
	// WindowREFs is the counter-reset window in REF commands. Zero
	// derives it from the controller the mitigation is attached to at
	// the first REF: the REF commands issued per nominal retention
	// window under the configured refresh rate
	// (Controller.RefsPerRetentionWindow).
	WindowREFs int64

	counters map[[2]int]int64 // (flat bank, phys row) -> count
	banks    int              `snapshot:"config"` // geometry, resolved at attach
	rows     int              `snapshot:"config"`
	refs     int64            // REF commands seen, for window reset
}

// NewCRA builds a counter table for the given geometry.
func NewCRA(threshold int64, banks, rows int) *CRA {
	return &CRA{
		Threshold:   threshold,
		CounterBits: 20,
		counters:    map[[2]int]int64{},
		banks:       banks,
		rows:        rows,
	}
}

// Name implements Mitigation.
func (m *CRA) Name() string { return "CRA(counters)" }

// OnActivate implements Mitigation.
func (m *CRA) OnActivate(c *Controller, bank, logRow int) {
	// Counters key on physical rows: the CAL 2015 proposal places the
	// counters in the controller but we grant it adjacency knowledge
	// so the experiment isolates the storage cost axis rather than the
	// adjacency axis (identical to logical keying on unremapped
	// devices).
	phys := c.PhysRowAt(bank, logRow)
	k := [2]int{bank, phys}
	m.counters[k]++
	// ceil(Threshold/2): plain Threshold/2 truncates odd thresholds
	// and fires one activation early, skewing the overhead attribution
	// of the frontier sweeps (TestCRAThresholdRounding pins this).
	if m.counters[k] >= (m.Threshold+1)/2 {
		c.RefreshPhysRows(bank, []int{phys - 2, phys - 1, phys + 1, phys + 2})
		m.counters[k] = 0
	}
}

// Horizon implements Mitigation: the activations before either row's
// counter reaches the trigger.
func (m *CRA) Horizon(c *Controller, bank, rowA, rowB, n int) int {
	tr := (m.Threshold + 1) / 2
	a := m.counters[[2]int{bank, c.PhysRowAt(bank, rowA)}]
	b := m.counters[[2]int{bank, c.PhysRowAt(bank, rowB)}]
	return pairHorizon(tr-a, tr-b, n)
}

// ObserveN implements Mitigation: bulk-add each row's share of the n
// activations to its counter.
func (m *CRA) ObserveN(c *Controller, bank, rowA, rowB, n int) {
	if na := int64((n + 1) / 2); na > 0 {
		m.counters[[2]int{bank, c.PhysRowAt(bank, rowA)}] += na
	}
	if nb := int64(n / 2); nb > 0 {
		m.counters[[2]int{bank, c.PhysRowAt(bank, rowB)}] += nb
	}
}

// pairHorizon returns how many activations of an alternating rowA/rowB
// sequence (rowA first) pass before the one that acts, capped at n:
// rowA's toA-th or rowB's toB-th activation acts, and a count of 1 or
// less means the row's next activation does.
func pairHorizon(toA, toB int64, n int) int {
	h := int64(n)
	if toA <= 1 {
		return 0
	}
	h = min(h, 2*(toA-1))
	if toB <= 1 {
		return min(int(h), 1)
	}
	return int(min(h, 2*(toB-1)+1))
}

// OnAutoRefresh implements Mitigation: counters reset every full
// retention window, since pressure cannot span windows. The window is
// derived from the controller's refresh config unless WindowREFs pins
// it explicitly.
func (m *CRA) OnAutoRefresh(c *Controller) {
	if m.WindowREFs <= 0 {
		m.WindowREFs = c.RefsPerRetentionWindow()
	}
	m.refs++
	if m.refs%m.WindowREFs == 0 {
		m.counters = map[[2]int]int64{}
	}
}

// StorageBits implements Mitigation: a full table of per-row counters.
func (m *CRA) StorageBits() int64 {
	return int64(m.banks) * int64(m.rows) * int64(m.CounterBits)
}

// TRR models vendor in-DRAM targeted row refresh: a small sampler
// captures recently activated row addresses (probabilistically), and
// each REF additionally refreshes the neighbours of sampled rows. The
// sampler's limited capacity is what many-sided attacks later
// exploited (experiment E22 reproduces that bypass).
type TRR struct {
	// Entries is the sampler capacity.
	Entries int
	// SampleP is the probability an activation is sampled.
	SampleP float64 `snapshot:"config"`

	sampler  [][2]int // slot -> (bank, physRow); slots 0..filled-1 hold samples
	filled   int
	nextSlot int
	src      *rng.Stream
}

// NewTRR builds an in-DRAM sampler.
func NewTRR(entries int, sampleP float64, src *rng.Stream) *TRR {
	return &TRR{Entries: entries, SampleP: sampleP, sampler: make([][2]int, entries), src: src}
}

// Name implements Mitigation.
func (m *TRR) Name() string { return "TRR(in-DRAM)" }

// OnActivate implements Mitigation.
func (m *TRR) OnActivate(c *Controller, bank, logRow int) {
	if !m.src.Bool(m.SampleP) {
		return
	}
	// Round-robin eviction: a new sample overwrites the oldest slot.
	m.sampler[m.nextSlot] = [2]int{bank, c.PhysRowAt(bank, logRow)}
	if m.filled < m.Entries {
		m.filled++
	}
	m.nextSlot = (m.nextSlot + 1) % m.Entries
}

// Horizon implements Mitigation: the sampler acts only at REF
// commands, so it observes every activation.
func (m *TRR) Horizon(c *Controller, bank, rowA, rowB, n int) int { return n }

// ObserveN implements Mitigation: the same sampling draws, in the same
// order, as n OnActivate calls.
func (m *TRR) ObserveN(c *Controller, bank, rowA, rowB, n int) {
	if m.SampleP <= 0 {
		return // Bool never samples and draws nothing
	}
	rows := [2]int{c.PhysRowAt(bank, rowA), c.PhysRowAt(bank, rowB)}
	cut := rng.BoolCut(m.SampleP)
	for i := 0; i < n; i++ {
		// Bool(p) for p >= 1 samples without a draw.
		if m.SampleP < 1 && m.src.Uint64()>>11 >= cut {
			continue
		}
		m.sampler[m.nextSlot] = [2]int{bank, rows[i%2]}
		if m.filled < m.Entries {
			m.filled++
		}
		m.nextSlot = (m.nextSlot + 1) % m.Entries
	}
}

// OnAutoRefresh implements Mitigation: refresh neighbours of all
// sampled aggressors, then clear the sampler. Slots drain in slot
// order — never in Go map order — because each neighbour refresh is
// charged time and energy sequentially, so the drain order is part of
// the simulation's determinism contract
// (TestTRRRefreshOrderDeterministic pins it).
func (m *TRR) OnAutoRefresh(c *Controller) {
	for i := 0; i < m.filled; i++ {
		v := m.sampler[i]
		c.RefreshPhysRows(v[0], []int{v[1] - 2, v[1] - 1, v[1] + 1, v[1] + 2})
	}
	m.filled = 0
	m.nextSlot = 0
}

// StorageBits implements Mitigation: entries * (bank + row address).
func (m *TRR) StorageBits() int64 { return int64(m.Entries) * 32 }

// ANVIL models the ASPLOS 2016 software defence: it samples the
// activation stream the way ANVIL samples last-level-cache-miss
// performance counters (one in SampleRate activations), keeps a short
// interval histogram, and when one row dominates the samples within an
// interval it refreshes that row's neighbours (in software: by reading
// them). Detection is statistical, so both detection latency and false
// positives are measurable, matching the paper's "promising but
// intrusive" verdict.
type ANVIL struct {
	// SampleRate samples one in this many activations.
	SampleRate int `snapshot:"config"`
	// IntervalSamples is the analysis window length in samples.
	IntervalSamples int `snapshot:"config"`
	// HotFraction: a row is flagged if it holds at least this fraction
	// of the interval's samples.
	HotFraction float64 `snapshot:"config"`

	sampleCount int64
	window      []rowKey
	Detections  int64
	flagged     map[rowKey]bool
}

type rowKey struct{ bank, logRow int }

// NewANVIL builds the detector with ANVIL-like defaults.
func NewANVIL() *ANVIL {
	return &ANVIL{SampleRate: 16, IntervalSamples: 256, HotFraction: 0.25,
		flagged: map[rowKey]bool{}}
}

// Name implements Mitigation.
func (m *ANVIL) Name() string { return "ANVIL(sw)" }

// OnActivate implements Mitigation.
func (m *ANVIL) OnActivate(c *Controller, bank, logRow int) {
	m.sampleCount++
	if m.sampleCount%int64(m.SampleRate) != 0 {
		return
	}
	m.window = append(m.window, rowKey{bank, logRow})
	if len(m.window) < m.IntervalSamples {
		return
	}
	counts := map[rowKey]int{}
	for _, k := range m.window {
		counts[k]++
	}
	// Drain the interval histogram in sorted (bank, row) order. The
	// neighbour refreshes below go through the controller and charge
	// time and energy, so draining in Go's randomized map order would
	// make multi-detection intervals irreproducible run to run — the
	// same bug class as the PR 3 TRR sampler drain (reprolint/maporder
	// keeps it from coming back).
	hot := make([]rowKey, 0, len(counts))
	for k, n := range counts { //repro:unordered keys are filtered into hot and sorted before any side effect
		if float64(n) >= m.HotFraction*float64(m.IntervalSamples) {
			hot = append(hot, k)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].bank != hot[j].bank {
			return hot[i].bank < hot[j].bank
		}
		return hot[i].logRow < hot[j].logRow
	})
	for _, k := range hot {
		// Software cannot know physical adjacency either; it
		// touches logical neighbours. (ANVIL used ±1 and ±2.)
		c.RefreshLogRows(k.bank, []int{k.logRow - 2, k.logRow - 1, k.logRow + 1, k.logRow + 2})
		m.Detections++
		m.flagged[k] = true
	}
	m.window = m.window[:0]
}

// Horizon implements Mitigation: ANVIL acts at the sample that
// completes its interval, which LoadState guarantees is still ahead.
func (m *ANVIL) Horizon(c *Controller, bank, rowA, rowB, n int) int {
	rate := int64(m.SampleRate)
	if rate <= 0 {
		return 0
	}
	next := rate - 1 - m.sampleCount%rate // activations before the next sample
	need := max(int64(m.IntervalSamples-len(m.window)), 1)
	return int(min(int64(n), next+(need-1)*rate))
}

// ObserveN implements Mitigation: record the samples that fall among
// the n activations.
func (m *ANVIL) ObserveN(c *Controller, bank, rowA, rowB, n int) {
	rate := int64(m.SampleRate)
	rows := [2]int{rowA, rowB}
	for i := rate - 1 - m.sampleCount%rate; i < int64(n); i += rate {
		m.window = append(m.window, rowKey{bank, rows[i%2]})
	}
	m.sampleCount += int64(n)
}

// OnAutoRefresh implements Mitigation.
func (m *ANVIL) OnAutoRefresh(c *Controller) {}

// StorageBits implements Mitigation: software tables, no hardware.
func (m *ANVIL) StorageBits() int64 { return 0 }

// Flagged reports whether ANVIL ever flagged the given row.
func (m *ANVIL) Flagged(bank, logRow int) bool { return m.flagged[rowKey{bank, logRow}] }
