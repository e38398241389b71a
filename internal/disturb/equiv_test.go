package disturb

// Equivalence tests for the flat-index and batched hot paths: for the
// same stream, Model (flat slices, batched dispatch) and Reference (the
// retained seed implementation: map indexes, strictly per-activation)
// must produce identical flip sets, counters, cell states and device
// contents under identical command sequences.

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// twin builds a (device, model) pair plus its (device, reference) twin
// with identical sampled populations and identical cell contents.
func twin(t *testing.T, g dram.Geometry, p Params, seed uint64) (*dram.Device, *Model, *dram.Device, *Reference) {
	t.Helper()
	dm := dram.NewDevice(g)
	dr := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	r := NewReference(g, p, rng.New(seed))
	if m.WeakCellCount() != r.WeakCellCount() {
		t.Fatalf("population mismatch: model %d cells, reference %d", m.WeakCellCount(), r.WeakCellCount())
	}
	dm.AttachFault(m)
	dr.AttachFault(r)
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			pat := uint64(0xaaaaaaaaaaaaaaaa)
			if row%2 == 1 {
				pat = 0x5555555555555555
			}
			dm.FillPhysRow(b, row, pat)
			dr.FillPhysRow(b, row, pat)
		}
	}
	return dm, m, dr, r
}

// compareState requires bit-identical device contents, flip counters
// and per-cell pressure/flipped state.
func compareState(t *testing.T, dm *dram.Device, m *Model, dr *dram.Device, r *Reference, ctx string) {
	t.Helper()
	if m.TotalFlips() != r.TotalFlips() {
		t.Fatalf("%s: flips: model %d, reference %d", ctx, m.TotalFlips(), r.TotalFlips())
	}
	g := dm.Geom
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			wm := dm.PhysRowWords(b, row)
			wr := dr.PhysRowWords(b, row)
			for c := range wm {
				if wm[c] != wr[c] {
					t.Fatalf("%s: bank %d row %d col %d: model %#x, reference %#x",
						ctx, b, row, c, wm[c], wr[c])
				}
			}
		}
	}
	// Shared sampling guarantees the cell slices are parallel.
	for i := range m.cells {
		cm, cr := m.cells[i], r.cells[i]
		if cm.pressure != cr.pressure || cm.flipped != cr.flipped {
			t.Fatalf("%s: cell %d (bank %d row %d bit %d): model (p=%v flipped=%v), reference (p=%v flipped=%v)",
				ctx, i, cm.bank, cm.physRow, cm.bit, cm.pressure, cm.flipped, cr.pressure, cr.flipped)
		}
	}
}

// denseParams returns a vulnerability with enough weak cells, low
// thresholds and every modelled mechanism (dist-2, DPD, asymmetric
// sides) active at the small test geometry.
func denseParams() Params {
	p := DefaultParams()
	p.WeakCellFraction = 5e-3
	p.ThresholdMedian = 120
	p.MinThreshold = 15
	p.ThresholdSigma = 0.9
	p.Dist2Fraction = 0.25
	return p
}

func TestFlatIndexMatchesReferencePerActivation(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 42)
	if m.WeakCellCount() == 0 {
		t.Fatal("test needs a non-empty population")
	}
	// A mixed command history: double-sided pairs, single rows,
	// interleaved refreshes, across both banks.
	now := dram.Time(0)
	step := func(d *dram.Device, b, row int) {
		d.Activate(b, row, now)
		d.Precharge(b)
	}
	src := rng.New(7)
	for iter := 0; iter < 30000; iter++ {
		// Activate only even rows of a narrow band, so odd-row victims
		// accumulate pressure across iterations instead of being
		// restored by activations of their own row.
		b := src.Intn(g.Banks)
		row := 1 + 2*src.Intn(7) // odd victim row in 1..13
		now += 49
		switch iter % 5 {
		case 0, 1: // double-sided pair around the victim
			step(dm, b, row-1)
			step(dr, b, row-1)
			now += 49
			step(dm, b, row+1)
			step(dr, b, row+1)
		case 2, 3: // single-sided step
			step(dm, b, row+1)
			step(dr, b, row+1)
		case 4: // refresh the victim row, resetting its epoch
			dm.RefreshPhysRow(b, row, now)
			dr.RefreshPhysRow(b, row, now)
		}
	}
	if m.TotalFlips() == 0 {
		t.Fatal("command history induced no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "mixed history")
}

func TestHammerNMatchesPerActivation(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), 99)
	now := dram.Time(0)
	const period = 49
	for row := 1; row < g.Rows-1; row += 3 {
		n := 100 + (row%7)*57
		dm.HammerN(0, row, n, now, period)
		tt := now
		for i := 0; i < n; i++ {
			dr.Activate(0, row, tt)
			dr.Precharge(0)
			tt += period
		}
		now += dram.Time(n) * period
	}
	if m.TotalFlips() == 0 {
		t.Fatal("no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "HammerN")
	if dm.Stats.Activates != dr.Stats.Activates || dm.Stats.Precharges != dr.Stats.Precharges {
		t.Fatalf("stats: model %+v, reference %+v", dm.Stats, dr.Stats)
	}
	if dm.Stats.OpEnergyPJ != dr.Stats.OpEnergyPJ {
		t.Fatalf("energy: model %v, reference %v", dm.Stats.OpEnergyPJ, dr.Stats.OpEnergyPJ)
	}
	for row := 0; row < g.Rows; row++ {
		if dm.LastRestore(0, row) != dr.LastRestore(0, row) {
			t.Fatalf("lastRestore row %d: model %d, reference %d", row, dm.LastRestore(0, row), dr.LastRestore(0, row))
		}
	}
}

// pairBurst issues n alternating rowA/rowB activations starting at
// start on both twins: on the model device as one HammerPairCycles
// (bank precharged) or HammerPairConflict (bank open) call, and on the
// reference device activation by activation. If the model device
// declines, it runs the same per-activation loop. It returns the time
// after the burst's last activation and whether the burst was batched.
func pairBurst(t *testing.T, dm, dr *dram.Device, cycles bool, bank, rowA, rowB, n int, start dram.Time) (dram.Time, bool) {
	t.Helper()
	const period = 49
	loop := func(d *dram.Device) dram.Time {
		tt := start
		for i := 0; i < 2*n; i++ {
			row := rowA
			if i%2 == 1 {
				row = rowB
			}
			if cycles {
				d.Activate(bank, row, tt)
				d.Precharge(bank)
			} else {
				d.Precharge(bank)
				d.Activate(bank, row, tt)
			}
			tt += period
		}
		return tt - period
	}
	var last dram.Time
	var ok bool
	if cycles {
		last, ok = dm.HammerPairCycles(bank, rowA, rowB, n, start, period)
	} else {
		last, ok = dm.HammerPairConflict(bank, rowA, rowB, n, start, period)
	}
	if !ok {
		last = loop(dm)
	}
	if want := loop(dr); last != want {
		t.Fatalf("pair (%d,%d): last activation %d, want %d", rowA, rowB, last, want)
	}
	return last + period, ok
}

// hasCoupledResident reports whether a cell residing in one of the
// hammered rows is coupled to the other.
func hasCoupledResident(m *Model, bank, rowA, rowB int) bool {
	base := bank * m.geom.Rows
	for _, inf := range m.aggIdx[base+rowA] {
		if inf.cell.physRow == rowB {
			return true
		}
	}
	for _, inf := range m.aggIdx[base+rowB] {
		if inf.cell.physRow == rowA {
			return true
		}
	}
	return false
}

// sweepPairTwins bursts every (v-1, v+1) pair of a dense population,
// many of whose aggressor rows hold distance-2 cells coupled to the
// other aggressor, through HammerPairCycles or HammerPairConflict. Every
// burst must batch and leave the model where the reference is. Rows
// enter each burst with pressure left by the previous one, since
// neighbouring victims share an aggressor.
func sweepPairTwins(t *testing.T, cycles bool, seed uint64) {
	t.Helper()
	g := dram.Geometry{Banks: 1, Rows: 128, Cols: 4}
	dm, m, dr, r := twin(t, g, denseParams(), seed)
	now := dram.Time(0)
	if !cycles {
		// Enter the open state the conflict path requires.
		dm.Activate(0, 0, now)
		dr.Activate(0, 0, now)
	}
	coupled := 0
	for v := 1; v < g.Rows-1; v += 2 {
		n := 200 + (v%5)*130
		var ok bool
		now, ok = pairBurst(t, dm, dr, cycles, 0, v-1, v+1, n, now)
		if !ok {
			t.Fatalf("victim %d: pair declined; every threshold exceeds one activation", v)
		}
		if hasCoupledResident(m, 0, v-1, v+1) {
			coupled++
		}
	}
	if coupled == 0 {
		t.Fatal("no pair held a coupled resident cell; test is vacuous")
	}
	if m.TotalFlips() == 0 {
		t.Fatal("no flips; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "pair sweep")
	if dm.OpenRow(0) != dr.OpenRow(0) {
		t.Fatalf("open row: model %d, reference %d", dm.OpenRow(0), dr.OpenRow(0))
	}
	if dm.Stats != dr.Stats {
		t.Fatalf("stats: model %+v, reference %+v", dm.Stats, dr.Stats)
	}
}

func TestHammerPairConflictMatchesPerActivation(t *testing.T) {
	sweepPairTwins(t, false, 1234)
}

func TestHammerPairCyclesMatchesPerActivation(t *testing.T) {
	sweepPairTwins(t, true, 4321)
}

// TestHammerPairCoupledAggressorsMatchReference pins the closed form
// for cells residing in a hammered row and coupled to the other one.
// Around each victim v it injects a distance-2 cell in rowA coupled to
// rowB and one in rowB coupled to rowA, with both charge polarities
// and data-pattern dependence on and off, and a distance-1 victim in v
// on the rowB cell's column. Before some bursts rowA is hammered alone
// until the rowB cell sits one activation below its threshold, so the
// burst's first rowA activation flips it and the victim's rowB weight
// changes from then on. Each pair runs through HammerPairCycles and
// HammerPairConflict, then again with its rows swapped, and must match
// the reference after every burst.
func TestHammerPairCoupledAggressorsMatchReference(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	p := DefaultParams()
	p.WeakCellFraction = 0 // injected cells only; DPD stays on
	for _, cycles := range []bool{true, false} {
		name := "conflict"
		if cycles {
			name = "cycles"
		}
		t.Run(name, func(t *testing.T) {
			dm, m, dr, r := twin(t, g, p, 1)
			inject := func(row, bit int, th float64, cv uint64, dist int, up, down float64) {
				m.InjectWeakCell(0, row, bit, th, cv, dist, up, down)
				r.InjectWeakCell(0, row, bit, th, cv, dist, up, down)
			}
			setBit := func(row, bit int, v uint64) {
				dm.SetPhysBit(0, row, bit, v)
				dr.SetPhysBit(0, row, bit, v)
			}
			now := dram.Time(0)
			crossed := 0
			for i := 0; i < 8; i++ {
				v := 5 + 7*i
				rowA, rowB := v-1, v+1
				cvA, cvB := uint64(i&1), uint64(i>>1&1)
				dpdA, dpdB := i>>2&1 == 1, i&1 == 0
				cross := i%3 != 2
				const bitA, bitB = 9, 20
				// rowA's cell, coupled to rowB from below.
				inject(rowA, bitA, 3, cvA, 2, 0.7, 1)
				setBit(rowA, bitA, cvA)
				setBit(rowB, bitA, aggressorBit(cvA, dpdA))
				// rowB's cell, coupled to rowA from above.
				const thB = 50
				inject(rowB, bitB, thB, cvB, 2, 1, 0.6)
				setBit(rowB, bitB, cvB)
				setBit(rowA, bitB, aggressorBit(cvB, dpdB))
				// A victim between them on rowB's cell's column, which
				// sees rowB's bit flip if the first activation crosses.
				inject(v, bitB, 150, cvB, 1, 1, 0.5)
				setBit(v, bitB, cvB)
				// Pre-pressure rowB's cell through single-sided rowA
				// hammering, precharged.
				effA := 1.0
				if dpdB {
					effA = p.DPDFactor
				}
				k := 10
				if cross {
					k = int(thB/effA) - 1
				}
				tt := now
				dm.HammerN(0, rowA, k, now, 49)
				for j := 0; j < k; j++ {
					dr.Activate(0, rowA, tt)
					dr.Precharge(0)
					tt += 49
				}
				now = tt
				for pass, rows := range [][2]int{{rowA, rowB}, {rowB, rowA}} {
					if !cycles {
						// The conflict path needs an open bank; open a
						// row nothing is coupled to, which leaves the
						// pre-pressure in place.
						dm.Activate(0, g.Rows-1, now)
						dr.Activate(0, g.Rows-1, now)
						now += 49
					}
					var ok bool
					now, ok = pairBurst(t, dm, dr, cycles, 0, rows[0], rows[1], 300, now)
					if !ok {
						t.Fatalf("pair %v declined", rows)
					}
					if !cycles {
						dm.Precharge(0)
						dr.Precharge(0)
					}
					if pass == 0 && cross && dm.PhysBit(0, rowB, bitB) != cvB {
						crossed++
					}
					compareState(t, dm, m, dr, r, fmt.Sprintf("victim %d pass %d", v, pass))
				}
			}
			if crossed == 0 {
				t.Fatal("no first activation crossed a threshold; test is vacuous")
			}
			if m.TotalFlips() == 0 {
				t.Fatal("no flips; test is vacuous")
			}
			if dm.Stats != dr.Stats {
				t.Fatalf("stats: model %+v, reference %+v", dm.Stats, dr.Stats)
			}
		})
	}
}

// aggressorBit returns the aggressor bit that applies data-pattern
// dependence to a victim charged to cv (the same value) or not.
func aggressorBit(cv uint64, dpd bool) uint64 {
	if dpd {
		return cv
	}
	return 1 - cv
}

// TestPairBatchingDeclinesHazards pins BatchablePair's remaining
// declines. A distance-2 cell residing in row 10 coupled to row 12 with
// a threshold above one activation's pressure no longer declines: the
// (10,12) burst batches and must match the reference. A cell whose
// threshold one activation can reach, identical rows and duplicate
// cells still decline.
func TestPairBatchingDeclinesHazards(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	p := DefaultParams()
	p.WeakCellFraction = 0
	dm, m, dr, r := twin(t, g, p, 1)
	for _, inj := range []func(bank, physRow, bit int, threshold float64, chargedVal uint64, dist int, up, down float64){
		m.InjectWeakCell, r.InjectWeakCell,
	} {
		inj(0, 10, 5, 3, 1, 2, 1, 1) // threshold 3, weight 1
		inj(0, 11, 5, 40, 1, 1, 1, 1)
		inj(0, 20, 6, 1, 0, 2, 1, 1)   // threshold == weight
		inj(0, 42, 6, 0.5, 0, 2, 1, 1) // DPD-reduced weight 0.25 < 0.5 <= 1
	}
	if !m.BatchablePair(0, 10, 12) || !m.BatchablePair(0, 8, 10) {
		t.Error("pairs around a cell one activation cannot flip must batch")
	}
	for _, row := range []int{10, 11} {
		dm.SetPhysBit(0, row, 5, 1)
		dr.SetPhysBit(0, row, 5, 1)
	}
	if _, ok := pairBurst(t, dm, dr, true, 0, 10, 12, 100, 0); !ok {
		t.Fatal("(10,12) burst declined")
	}
	if m.TotalFlips() == 0 {
		t.Fatal("the row-11 victim did not flip; test is vacuous")
	}
	compareState(t, dm, m, dr, r, "(10,12)")
	for _, pair := range [][2]int{{20, 22}, {22, 20}, {18, 20}, {40, 42}, {42, 44}} {
		if m.BatchablePair(0, pair[0], pair[1]) {
			t.Errorf("pair %v around a cell one activation can flip must decline", pair)
		}
	}
	if !m.BatchablePair(0, 30, 32) {
		t.Error("clean pair should batch")
	}
	if m.BatchablePair(0, 30, 30) {
		t.Error("identical rows must decline")
	}
	// Duplicate injection disables all batching.
	m.InjectWeakCell(0, 50, 7, 3, 1, 1, 1, 1)
	m.InjectWeakCell(0, 50, 7, 5, 0, 1, 1, 1)
	if m.BatchableRow(0, 30) || m.BatchablePair(0, 30, 32) || m.BatchablePair(0, 10, 12) {
		t.Error("duplicate cells must disable batching")
	}
}

func TestHammerNFallbackStillEquivalent(t *testing.T) {
	// With duplicates injected, HammerN must take the per-activation
	// fallback and still match the reference.
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	dm := dram.NewDevice(g)
	dr := dram.NewDevice(g)
	m := NewModel(g, Invulnerable(), rng.New(1))
	r := NewReference(g, Invulnerable(), rng.New(1))
	for _, mod := range []func(bank, physRow, bit int, threshold float64, chargedVal uint64, dist int, up, down float64){
		m.InjectWeakCell, r.InjectWeakCell,
	} {
		mod(0, 10, 3, 50, 1, 1, 1, 0.5)
		mod(0, 10, 3, 80, 0, 1, 0.7, 1) // duplicate position
	}
	dm.AttachFault(m)
	dr.AttachFault(r)
	for b := 0; b < g.Banks; b++ {
		for row := 0; row < g.Rows; row++ {
			dm.FillPhysRow(b, row, 0xffffffffffffffff)
			dr.FillPhysRow(b, row, 0xffffffffffffffff)
		}
	}
	dm.HammerN(0, 9, 200, 0, 49)
	tt := dram.Time(0)
	for i := 0; i < 200; i++ {
		dr.Activate(0, 9, tt)
		dr.Precharge(0)
		tt += 49
	}
	if m.TotalFlips() != r.TotalFlips() {
		t.Fatalf("flips: model %d, reference %d", m.TotalFlips(), r.TotalFlips())
	}
	for row := 0; row < g.Rows; row++ {
		wm, wr := dm.PhysRowWords(0, row), dr.PhysRowWords(0, row)
		for c := range wm {
			if wm[c] != wr[c] {
				t.Fatalf("row %d col %d: model %#x, reference %#x", row, c, wm[c], wr[c])
			}
		}
	}
}
