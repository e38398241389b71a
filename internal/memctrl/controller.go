// Package memctrl implements the memory controller stack: pluggable
// address mapping (MappingPolicy: row-interleaved open-page,
// cache-line channel/bank-interleaved, DRAMA-style XOR bank hash), the
// per-channel Controller with its open-page access path, DDR3-class
// latency and energy accounting and periodic auto-refresh engine (with
// the configurable refresh-rate multiplier that is the paper's
// "immediate solution"), the multi-channel MemorySystem that routes
// flat physical addresses through the active policy and rolls
// per-channel stats into aggregate accounting, and a registry of
// pluggable RowHammer mitigations — PARA in its three placements,
// counter-based detection (CRA), in-DRAM targeted-refresh sampling
// (TRR), and ANVIL-style software detection.
//
// The pluggable registry is a working miniature of the paper's central
// architectural argument: an intelligent, configurable memory
// controller can be "configured/programmed/patched to execute
// specialized functions" when a new failure mechanism is discovered.
// Every mitigation below is such a patch: none of them require
// changing the device model.
package memctrl

import (
	"fmt"

	"repro/internal/dram"
)

// AddressMap translates flat physical byte addresses to within-rank
// DRAM coordinates. The layout is row:bank:col:offset (row-interleaved,
// open-page friendly): consecutive cache lines hit the same row. It is
// the single-device ancestor of MappingPolicy; RowInterleaved over a
// 1-channel 1-rank topology decodes bit-identically.
type AddressMap struct {
	Geom dram.Geometry
}

// Coord is a decoded within-rank DRAM coordinate.
type Coord struct {
	Bank, Row, Col int
}

// Decode maps a byte address to its DRAM coordinate. The low 3 bits
// (byte-in-word) are dropped. Addresses beyond the device wrap, which
// keeps workload generators simple.
func (a AddressMap) Decode(addr uint64) Coord {
	w := addr >> 3
	col := int(w % uint64(a.Geom.Cols))
	w /= uint64(a.Geom.Cols)
	bank := int(w % uint64(a.Geom.Banks))
	w /= uint64(a.Geom.Banks)
	row := int(w % uint64(a.Geom.Rows))
	return Coord{Bank: bank, Row: row, Col: col}
}

// Encode maps a DRAM coordinate back to the canonical byte address.
func (a AddressMap) Encode(c Coord) uint64 {
	w := uint64(c.Row)
	w = w*uint64(a.Geom.Banks) + uint64(c.Bank)
	w = w*uint64(a.Geom.Cols) + uint64(c.Col)
	return w << 3
}

// Bytes returns the addressable capacity in bytes.
func (a AddressMap) Bytes() uint64 {
	return uint64(a.Geom.TotalCells() / 8)
}

// Config parameterizes a controller.
type Config struct {
	// Geom is derived from the controlled device(s); leave it zero.
	// A non-zero Geom that disagrees with the device geometry is a
	// wiring bug and New panics on it rather than silently overwriting
	// the caller's value.
	Geom dram.Geometry
	// RefreshMultiplier scales the refresh rate: 1 is the nominal
	// 64 ms window, 2 refreshes twice as often (32 ms window), etc.
	// This is the paper's "increase the refresh rate" solution.
	RefreshMultiplier float64
	// DisableRefresh turns auto-refresh off entirely (used by
	// retention experiments that control refresh manually).
	DisableRefresh bool
	// ECC selects the DIMM's ECC configuration. The zero value is a
	// non-ECC DIMM, bit-identical to the pre-ECC controller.
	ECC ECCConfig
}

// Stats aggregates controller-side accounting.
type Stats struct {
	Accesses      int64
	RowHits       int64
	RowMisses     int64 // bank was closed
	RowConflicts  int64 // different row was open
	AutoRefreshes int64 // REF commands issued
	MitRefreshes  int64 // rows refreshed by mitigations
	// ECC read-path triage (zero on non-ECC controllers): corrupted
	// words whose error the code corrected, only detected, or turned
	// into silent corruption (miscorrection or undetected pattern).
	ECCCorrected int64
	ECCDetected  int64
	ECCSilent    int64
	BusyTime     dram.Time
	RefreshTime  dram.Time
	MitTime      dram.Time
}

// Add accumulates other into s (aggregate roll-up across channels).
// Time-like fields add too: they are totals of per-channel busy time,
// not wall-clock.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.RowConflicts += other.RowConflicts
	s.AutoRefreshes += other.AutoRefreshes
	s.MitRefreshes += other.MitRefreshes
	s.ECCCorrected += other.ECCCorrected
	s.ECCDetected += other.ECCDetected
	s.ECCSilent += other.ECCSilent
	s.BusyTime += other.BusyTime
	s.RefreshTime += other.RefreshTime
	s.MitTime += other.MitTime
}

// Controller drives one channel: a set of identical ranks sharing the
// channel's command bus, refresh engine and mitigation registry.
// Coord-based methods address rank 0, which keeps the original
// single-device API (and its results) intact; rank-aware callers use
// AccessRanked/AccessLoc.
type Controller struct {
	cfg   Config `snapshot:"config"`
	ranks []*dram.Device
	amap  AddressMap `snapshot:"config"`

	now        dram.Time
	nextRefDue dram.Time
	refPeriod  dram.Time
	refMult    float64     // effective refresh multiplier (config × attached scaling)
	lastAct    []dram.Time // per flat bank (rank*Banks+bank), for tRC enforcement

	// ecc classifies every read against the controller's shadow words
	// (nil on non-ECC configurations; see ecc.go).
	ecc *eccLayer

	mitigations []Mitigation
	// refPolicy, when attached, replaces the uniform per-REF row sweep
	// (multi-rate refresh). It aliases an entry of mitigations, which
	// SaveState serializes.
	refPolicy autoRefreshPolicy `snapshot:"derived"`
	Stats     Stats
	// batchedPairs counts the hammer pairs HammerPairsRanked applied
	// through the batched device path. The pairs* counters split the
	// pairs it issued access by access by reason: the device declined
	// the row pair (the whole sweep), the bank was not open on rowB
	// (the first pair, or after a REF precharged it), the next REF
	// fell inside the pair, or a mitigation acts in it. They are
	// diagnostics of which path ran, not simulated state.
	batchedPairs   int64 `snapshot:"diagnostic"`
	pairsDeclined  int64 `snapshot:"diagnostic"`
	pairsNotOpen   int64 `snapshot:"diagnostic"`
	pairsAtREF     int64 `snapshot:"diagnostic"`
	pairsMitigated int64 `snapshot:"diagnostic"`
}

// New creates a controller over one device (a single-rank channel).
// Config.Geom is derived from the device; see Config.
func New(dev *dram.Device, cfg Config) *Controller {
	return NewMultiRank([]*dram.Device{dev}, cfg)
}

// NewMultiRank creates a controller driving a set of identical ranks.
// It panics when the rank set is empty, the ranks' geometries disagree,
// or a non-zero cfg.Geom disagrees with the device geometry.
func NewMultiRank(devs []*dram.Device, cfg Config) *Controller {
	if len(devs) == 0 {
		panic("memctrl: NewMultiRank with no ranks")
	}
	g := devs[0].Geom
	for i, d := range devs {
		if d.Geom != g {
			panic(fmt.Sprintf("memctrl: rank %d geometry %+v disagrees with rank 0 %+v", i, d.Geom, g))
		}
	}
	if cfg.Geom != (dram.Geometry{}) && cfg.Geom != g {
		panic(fmt.Sprintf("memctrl: Config.Geom %+v disagrees with device geometry %+v (leave Geom zero; it is derived)", cfg.Geom, g))
	}
	if cfg.RefreshMultiplier <= 0 {
		cfg.RefreshMultiplier = 1
	}
	cfg.Geom = g
	c := &Controller{
		cfg:     cfg,
		ranks:   devs,
		amap:    AddressMap{Geom: g},
		lastAct: make([]dram.Time, len(devs)*g.Banks),
	}
	if cfg.ECC.Kind != ECCNone {
		c.ecc = newECCLayer(cfg.ECC, g, len(devs))
	}
	c.refMult = cfg.RefreshMultiplier
	c.refPeriod = dram.Time(float64(devs[0].Timing.TREFI) / cfg.RefreshMultiplier)
	if c.refPeriod < 1 {
		c.refPeriod = 1
	}
	c.nextRefDue = c.refPeriod
	return c
}

// Device returns rank 0 (experiment instrumentation; the whole device
// for single-rank channels).
func (c *Controller) Device() *dram.Device { return c.ranks[0] }

// Rank returns the device behind the given rank index.
func (c *Controller) Rank(i int) *dram.Device { return c.ranks[i] }

// NumRanks returns how many ranks the controller drives.
func (c *Controller) NumRanks() int { return len(c.ranks) }

// Map returns the controller's rank-0 address map.
func (c *Controller) Map() AddressMap { return c.amap }

// Now returns the current simulated time.
func (c *Controller) Now() dram.Time { return c.now }

// RefreshPeriod returns the effective tREFI: the nominal interval
// scaled by the configured and attached refresh multipliers. An
// attacker can measure it from outside through REF-induced latency
// spikes (the SMASH/Blacksmith synchronization primitive), so exposing
// it grants no power a user-level program lacks.
func (c *Controller) RefreshPeriod() dram.Time { return c.refPeriod }

// NextRefreshDue returns when the next REF command comes due. The
// refresh-sync attack strategy uses it to align hammer bursts to the
// refresh schedule it has (in the real attack) inferred from timing.
func (c *Controller) NextRefreshDue() dram.Time { return c.nextRefDue }

// ECCEnabled reports whether the controller has an ECC layer attached.
// Offline classification passes (attack.MiscorrectionHunt) use it to
// refuse systems whose reads would be ECC-filtered.
func (c *Controller) ECCEnabled() bool { return c.ecc != nil }

// refreshScaler is the hook through which an attached mitigation
// multiplies the controller's refresh rate (RefreshScaling implements
// it).
type refreshScaler interface{ RefreshFactor() float64 }

// autoRefreshPolicy is the hook through which an attached mitigation
// replaces the controller's uniform per-REF row sweep with its own row
// schedule (MultiRateRefresh implements it). bind is called at attach
// time to validate the policy against the controller's topology;
// serviceREF refreshes this REF command's due rows on every rank and
// returns how many rows it refreshed versus the uniform sweep's
// nominal budget, which scales the REF's tRFC busy-time charge.
type autoRefreshPolicy interface {
	bind(c *Controller)
	serviceREF(c *Controller) (refreshed, nominal int64)
}

// Attach registers a mitigation. Mitigations see every activate on
// every rank; the bank index they observe is the flat rank*Banks+bank,
// which equals the plain bank index on single-rank channels.
//
// A mitigation exposing a RefreshFactor (RefreshScaling) multiplies
// the refresh rate on attach, stacking with Config.RefreshMultiplier;
// the next REF comes due one new period from the current time, so
// attaching before any traffic is bit-identical to configuring the
// multiplier up front.
func (c *Controller) Attach(m Mitigation) {
	c.mitigations = append(c.mitigations, m)
	if sc, ok := m.(*Scrubber); ok {
		sc.bind(c)
	}
	if rp, ok := m.(autoRefreshPolicy); ok {
		if c.refPolicy != nil {
			panic("memctrl: a refresh policy is already attached; only one row schedule can drive the refresh engine")
		}
		rp.bind(c)
		c.refPolicy = rp
	}
	if rs, ok := m.(refreshScaler); ok {
		if f := rs.RefreshFactor(); f > 0 {
			c.refMult *= f
			c.refPeriod = dram.Time(float64(c.refPeriod) / f)
			if c.refPeriod < 1 {
				c.refPeriod = 1
			}
			c.nextRefDue = c.now + c.refPeriod
		}
	}
}

// Mitigations returns the attached mitigations.
func (c *Controller) Mitigations() []Mitigation { return c.mitigations }

// splitFlatBank decodes a flat rank*Banks+bank index.
func (c *Controller) splitFlatBank(flat int) (rank, bank int) {
	return flat / c.cfg.Geom.Banks, flat % c.cfg.Geom.Banks
}

// PhysRowAt translates a logical row to its physical row on the rank
// behind the given flat bank index (mitigation adjacency lookups).
func (c *Controller) PhysRowAt(flatBank, logRow int) int {
	rank, _ := c.splitFlatBank(flatBank)
	return c.ranks[rank].PhysRow(logRow)
}

// serviceRefresh issues any REF commands that have come due. Refresh
// stalls the channel for tRFC each, which is how the refresh-rate
// solution's performance overhead arises. Ranks refresh in lockstep:
// one REF event services every rank.
func (c *Controller) serviceRefresh() {
	if c.cfg.DisableRefresh {
		return
	}
	for c.now >= c.nextRefDue {
		// REF requires all banks precharged.
		for _, dev := range c.ranks {
			for b := 0; b < c.cfg.Geom.Banks; b++ {
				dev.Precharge(b)
			}
			if c.refPolicy == nil {
				dev.AutoRefresh(c.now)
			}
		}
		c.Stats.AutoRefreshes++
		// tRFC steals bandwidth within the tREFI budget rather than
		// stretching it; it is charged as busy time, the quantity the
		// refresh-burden experiment reports as throughput loss. A
		// multi-rate policy refreshes a subset of the nominal per-REF
		// row budget, and its REF occupies the proportional tRFC share
		// — the bandwidth half of RAIDR's savings.
		if c.refPolicy != nil {
			refreshed, nominal := c.refPolicy.serviceREF(c)
			if nominal > 0 {
				c.Stats.RefreshTime += dram.Time(float64(c.ranks[0].Timing.TRFC) * float64(refreshed) / float64(nominal))
			}
		} else {
			c.Stats.RefreshTime += c.ranks[0].Timing.TRFC
		}
		c.nextRefDue += c.refPeriod
		for _, m := range c.mitigations {
			m.OnAutoRefresh(c)
		}
	}
}

// Access performs one 64-bit read or write at a flat byte address on
// rank 0 and returns the read data (reads echo the stored word; writes
// return the written word) plus the access latency.
func (c *Controller) Access(addr uint64, write bool, data uint64) (uint64, dram.Time) {
	return c.AccessCoord(c.amap.Decode(addr), write, data)
}

// AccessCoord is Access with a pre-decoded rank-0 coordinate; attack
// kernels use it to hammer specific rows.
func (c *Controller) AccessCoord(co Coord, write bool, data uint64) (uint64, dram.Time) {
	return c.AccessRanked(0, co, write, data)
}

// AccessLoc routes a system-level location to its rank. The location's
// Channel field is ignored: the MemorySystem has already routed the
// request to this channel's controller.
func (c *Controller) AccessLoc(l Loc, write bool, data uint64) (uint64, dram.Time) {
	return c.AccessRanked(l.Rank, l.Coord(), write, data)
}

// AccessRanked performs one 64-bit read or write at a coordinate on the
// given rank.
func (c *Controller) AccessRanked(rank int, co Coord, write bool, data uint64) (uint64, dram.Time) {
	c.serviceRefresh()
	start := c.now
	dev := c.ranks[rank]
	t := dev.Timing
	open := dev.OpenRow(co.Bank)
	phys := dev.PhysRow(co.Row)
	flat := rank*c.cfg.Geom.Banks + co.Bank
	switch {
	case open == phys:
		c.Stats.RowHits++
		c.now += t.TCL + t.TBURST
	case open == -1:
		c.Stats.RowMisses++
		c.activate(rank, co.Bank, co.Row)
		c.now += t.TRCD + t.TCL + t.TBURST
	default:
		c.Stats.RowConflicts++
		// Respect the row cycle time between ACTs to the same bank.
		if since := c.now - c.lastAct[flat]; since < t.TRC {
			c.now += t.TRC - since
		}
		dev.Precharge(co.Bank)
		c.activate(rank, co.Bank, co.Row)
		c.now += t.TRP + t.TRCD + t.TCL + t.TBURST
	}
	var out uint64
	if write {
		dev.Write(co.Bank, co.Col, data)
		if c.ecc != nil {
			c.ecc.onWrite(rank, co.Bank, phys, co.Col, data)
		}
		out = data
	} else {
		out = dev.Read(co.Bank, co.Col)
		if c.ecc != nil {
			out = c.ecc.onReads(&c.Stats, rank, co.Bank, phys, co.Col, out, 1)
		}
	}
	c.Stats.Accesses++
	c.Stats.BusyTime += c.now - start
	return out, c.now - start
}

func (c *Controller) activate(rank, bank, logRow int) {
	dev := c.ranks[rank]
	dev.Activate(bank, logRow, c.now)
	flat := rank*c.cfg.Geom.Banks + bank
	c.lastAct[flat] = c.now
	for _, m := range c.mitigations {
		m.OnActivate(c, flat, logRow)
	}
}

// HammerPairs performs `pairs` alternating single-word read accesses to
// (bank,rowA,col 0) and (bank,rowB,col 0) on rank 0 — the double-sided
// hammer access pattern — through the normal access path. See
// HammerPairsRanked for the contract.
func (c *Controller) HammerPairs(bank, rowA, rowB, pairs int) {
	c.HammerPairsRanked(0, bank, rowA, rowB, pairs)
}

// HammerPairsRanked is HammerPairs on an explicit rank. It is
// behaviourally identical to the equivalent AccessRanked loop (same
// timing, refresh interleaving, stats, ECC counts, mitigation state and
// fault physics, bit for bit) but batches whole runs of the sweep into
// single device calls, amortizing per-activation bookkeeping across
// each run.
//
// A batched run never spans a REF command, and it never spans an
// activation at which an attached mitigation acts: each run is capped
// at the shortest Mitigation.Horizon, the mitigations then observe it
// in bulk through ObserveN, and the pair holding the acting activation
// goes through the per-access path, which is exact by construction.
// Passive mitigations have an unbounded horizon and cost nothing.
//
// An ECC layer classifies each run's reads in bulk: one onReads call
// per aggressor row counts all k reads of its col-0 word. That is exact
// because the word every read of a row returns is constant across the
// run. Nothing else writes a hammered row inside a run, and the only
// flip a batched burst can place in a hammered row lands in rowB at the
// burst's first rowA activation, before any rowB read. Here not even
// that happens: the bank is open on rowB, so rowB's cells enter the run
// restored. The whole sweep takes the per-access path only when
// dram.Device.PairBatchable declines the row pair. With the
// disturbance and retention models that means a hammered row holds a
// retention cell, or a disturbance cell one activation of the other
// hammered row can flip, or InjectWeakCell stacked duplicate cells.
func (c *Controller) HammerPairsRanked(rank, bank, rowA, rowB, pairs int) {
	coA := Coord{Bank: bank, Row: rowA}
	coB := Coord{Bank: bank, Row: rowB}
	naivePair := func() {
		c.AccessRanked(rank, coA, false, 0)
		c.AccessRanked(rank, coB, false, 0)
	}
	dev := c.ranks[rank]
	if !dev.PairBatchable(bank, rowA, rowB) {
		c.pairsDeclined += int64(max(pairs, 0))
		for i := 0; i < pairs; i++ {
			naivePair()
		}
		return
	}
	flat := rank*c.cfg.Geom.Banks + bank
	physA, physB := dev.PhysRow(rowA), dev.PhysRow(rowB)
	t := dev.Timing
	// In the steady row-conflict state every access activates exactly
	// max(tRC, tRP+tRCD+tCL+tBURST) after the previous activation and
	// occupies the bus for the same period.
	s := t.TRP + t.TRCD + t.TCL + t.TBURST
	period := t.TRC
	if s > period {
		period = s
	}
	done := 0
	for done < pairs {
		c.serviceRefresh()
		// The batched run assumes both accesses of every pair take the
		// row-conflict branch, which holds once the bank is open on
		// rowB; until then (first pair, or after a refresh precharged
		// the bank) k stays 0 and the pair is issued access by access.
		k := 0
		var act0 dram.Time
		why := &c.pairsNotOpen // counts the pair if it runs access by access
		if dev.OpenRow(bank) == physB {
			// First activation time, mirroring the conflict branch's
			// tRC enforcement.
			act0 = c.now
			if since := c.now - c.lastAct[flat]; since < t.TRC {
				act0 += t.TRC - since
			}
			why = &c.pairsAtREF
			if k = c.batchPairs(act0, s, period, pairs-done); k > 0 {
				why = &c.pairsMitigated
				k = min(k, c.horizon(flat, rowA, rowB, 2*k)/2)
			}
		}
		if k == 0 {
			*why++
			naivePair()
			done++
			continue
		}
		last, ok := dev.HammerPairConflict(bank, rowA, rowB, k, act0, period)
		if !ok {
			panic("memctrl: device declined a hammer pair PairBatchable accepted")
		}
		for _, m := range c.mitigations {
			m.ObserveN(c, flat, rowA, rowB, 2*k)
		}
		dev.BatchReads(bank, 2*k)
		if c.ecc != nil {
			c.ecc.onReads(&c.Stats, rank, bank, physA, 0, dev.PhysRowWords(bank, physA)[0], int64(k))
			c.ecc.onReads(&c.Stats, rank, bank, physB, 0, dev.PhysRowWords(bank, physB)[0], int64(k))
		}
		end := last + s
		c.Stats.Accesses += int64(2 * k)
		c.Stats.RowConflicts += int64(2 * k)
		c.Stats.BusyTime += end - c.now
		c.lastAct[flat] = last
		c.now = end
		c.batchedPairs += int64(k)
		done += k
	}
}

// batchPairs returns how many of the remaining pairs fit before the
// next REF command comes due, given the run's first activation at act0.
// Access j of the run starts (and its refresh-due check happens) at
// act0+(j-1)*period+s; the j=0 check already ran.
func (c *Controller) batchPairs(act0, s, period dram.Time, remaining int) int {
	if c.cfg.DisableRefresh {
		return remaining
	}
	if act0+s >= c.nextRefDue {
		return 0
	}
	fit := uint64(c.nextRefDue-1-(act0+s))/uint64(period) + 2
	return int(min(fit, uint64(2*remaining)) / 2)
}

// horizon returns how many of the next n activations alternating rowA,
// rowB (rowA first) on the flat bank every attached mitigation observes
// without acting.
func (c *Controller) horizon(flat, rowA, rowB, n int) int {
	for _, m := range c.mitigations {
		if n == 0 {
			break
		}
		n = min(n, m.Horizon(c, flat, rowA, rowB, n))
	}
	return n
}

// AdvanceTo moves idle time forward to at least t, servicing refresh
// on the way. Time never moves backwards.
func (c *Controller) AdvanceTo(t dram.Time) {
	if t > c.now {
		c.now = t
	}
	c.serviceRefresh()
}

// RefreshLogRows refreshes the given logical rows on behalf of a
// mitigation, charging the targeted-refresh time cost. flatBank is the
// flat rank*Banks+bank index mitigations observe.
func (c *Controller) RefreshLogRows(flatBank int, logRows []int) {
	rank, bank := c.splitFlatBank(flatBank)
	dev := c.ranks[rank]
	for _, r := range logRows {
		if r < 0 || r >= c.cfg.Geom.Rows {
			continue
		}
		dev.RefreshLogRow(bank, r, c.now)
		c.chargeMitRefresh()
	}
}

// RefreshPhysRows refreshes the given physical rows on behalf of a
// DRAM-side mitigation that knows true adjacency. flatBank is the flat
// rank*Banks+bank index mitigations observe.
func (c *Controller) RefreshPhysRows(flatBank int, physRows []int) {
	rank, bank := c.splitFlatBank(flatBank)
	dev := c.ranks[rank]
	for _, r := range physRows {
		if r < 0 || r >= c.cfg.Geom.Rows {
			continue
		}
		dev.RefreshPhysRow(bank, r, c.now)
		c.chargeMitRefresh()
	}
}

func (c *Controller) chargeMitRefresh() {
	c.Stats.MitRefreshes++
	c.now += c.ranks[0].Timing.TRC
	c.Stats.MitTime += c.ranks[0].Timing.TRC
}

// RefsPerRetentionWindow returns how many REF commands the controller
// issues per nominal retention window (tREFW) under its configured
// refresh rate: 8192 at the nominal rate, scaled up by the refresh
// multiplier. Window-based mitigations that count REF commands derive
// their reset cadence from it rather than hardcoding 8192, which would
// silently shrink their window whenever the refresh rate is raised.
func (c *Controller) RefsPerRetentionWindow() int64 {
	return int64(float64(c.ranks[0].Timing.RetentionWindow())/float64(c.refPeriod) + 0.5)
}

// RetentionWindow returns the effective per-row refresh period under
// the effective refresh multiplier (Config.RefreshMultiplier times any
// attached RefreshScaling factors).
func (c *Controller) RetentionWindow() dram.Time {
	return dram.Time(float64(c.ranks[0].Timing.RetentionWindow()) / c.refMult)
}

// RefreshMultiplier returns the effective refresh-rate multiplier:
// Config.RefreshMultiplier times every attached RefreshScaling factor.
func (c *Controller) RefreshMultiplier() float64 { return c.refMult }

// EnergyPJ returns total energy consumed so far: operation energy of
// every rank plus per-rank background power integrated over elapsed
// time.
func (c *Controller) EnergyPJ() float64 {
	elapsedSec := float64(c.now) / float64(dram.Second)
	total := 0.0
	for _, dev := range c.ranks {
		total += dev.Stats.OpEnergyPJ + dev.Energy.BackgroundW*elapsedSec*1e12
	}
	return total
}

// String summarizes controller state for logs.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{t=%dns acc=%d hit=%d conf=%d ref=%d mit=%d}",
		c.now, c.Stats.Accesses, c.Stats.RowHits, c.Stats.RowConflicts,
		c.Stats.AutoRefreshes, c.Stats.MitRefreshes)
}
