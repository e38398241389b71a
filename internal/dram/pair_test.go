package dram_test

// Twin-device tests for the pair-burst APIs with the RowHammer model
// attached. HammerPairConflict and HammerPairCycles on a device
// carrying disturb.Model (batched) must leave the device — bits, flip
// counts, stats, open rows and restore times — exactly as the
// per-activation command loop leaves a device carrying
// disturb.Reference, including bursts whose aggressor rows hold
// distance-2 cells coupled to the other aggressor and carry pressure
// from earlier bursts.

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/retention"
	"repro/internal/rng"
)

const pairPeriod = 49

type pairTwin struct {
	fast, slow *dram.Device
	model      *disturb.Model
	ref        *disturb.Reference
}

func newPairTwin(t *testing.T, g dram.Geometry, withRetention bool) *pairTwin {
	t.Helper()
	p := disturb.DefaultParams()
	p.WeakCellFraction = 5e-3
	p.ThresholdMedian = 120
	p.MinThreshold = 15
	p.ThresholdSigma = 0.9
	p.Dist2Fraction = 0.25
	tw := &pairTwin{
		fast:  dram.NewDevice(g),
		slow:  dram.NewDevice(g),
		model: disturb.NewModel(g, p, rng.New(77)),
		ref:   disturb.NewReference(g, p, rng.New(77)),
	}
	tw.fast.AttachFault(tw.model)
	tw.slow.AttachFault(tw.ref)
	if withRetention {
		rp := retention.DefaultParams()
		rp.WeakFraction = 1e-3 // some hammered rows hold retention cells and decline
		tw.fast.AttachFault(retention.NewModel(g, rp, rng.New(78)))
		tw.slow.AttachFault(retention.NewModel(g, rp, rng.New(78)))
	}
	for _, d := range []*dram.Device{tw.fast, tw.slow} {
		for b := 0; b < g.Banks; b++ {
			for r := 0; r < g.Rows; r++ {
				d.FillPhysRow(b, r, 0xaaaaaaaaaaaaaaaa>>(r%2))
			}
		}
	}
	return tw
}

// burst runs n pairs of rowA/rowB on both devices, batched on fast
// (falling back to the command loop if the device declines) and
// command by command on slow, and returns the next free time and
// whether fast batched.
func (tw *pairTwin) burst(t *testing.T, cycles bool, b, rowA, rowB, n int, start dram.Time) (dram.Time, bool) {
	t.Helper()
	loop := func(d *dram.Device) dram.Time {
		tt := start
		for i := 0; i < 2*n; i++ {
			row := rowA
			if i%2 == 1 {
				row = rowB
			}
			if cycles {
				d.Activate(b, row, tt)
				d.Precharge(b)
			} else {
				d.Precharge(b)
				d.Activate(b, row, tt)
			}
			tt += pairPeriod
		}
		return tt - pairPeriod
	}
	var last dram.Time
	var ok bool
	if cycles {
		last, ok = tw.fast.HammerPairCycles(b, rowA, rowB, n, start, pairPeriod)
	} else {
		last, ok = tw.fast.HammerPairConflict(b, rowA, rowB, n, start, pairPeriod)
	}
	if ok != tw.fast.PairBatchable(b, rowA, rowB) {
		t.Fatalf("pair (%d,%d): applied %v, PairBatchable %v", rowA, rowB, ok, !ok)
	}
	if !ok {
		last = loop(tw.fast)
	}
	if want := loop(tw.slow); last != want {
		t.Fatalf("pair (%d,%d): last activation %d, want %d", rowA, rowB, last, want)
	}
	return last + pairPeriod, ok
}

func (tw *pairTwin) compare(t *testing.T, ctx string) {
	t.Helper()
	if f, s := tw.model.TotalFlips(), tw.ref.TotalFlips(); f != s {
		t.Fatalf("%s: flips: batched %d, reference %d", ctx, f, s)
	}
	if tw.fast.Stats != tw.slow.Stats {
		t.Fatalf("%s: stats:\nbatched   %+v\nreference %+v", ctx, tw.fast.Stats, tw.slow.Stats)
	}
	g := tw.fast.Geom
	for b := 0; b < g.Banks; b++ {
		if tw.fast.OpenRow(b) != tw.slow.OpenRow(b) {
			t.Fatalf("%s: bank %d open row: batched %d, reference %d", ctx, b, tw.fast.OpenRow(b), tw.slow.OpenRow(b))
		}
		for r := 0; r < g.Rows; r++ {
			wf, ws := tw.fast.PhysRowWords(b, r), tw.slow.PhysRowWords(b, r)
			for c := range wf {
				if wf[c] != ws[c] {
					t.Fatalf("%s: bank %d row %d col %d: batched %#x, reference %#x", ctx, b, r, c, wf[c], ws[c])
				}
			}
			if tw.fast.LastRestore(b, r) != tw.slow.LastRestore(b, r) {
				t.Fatalf("%s: bank %d row %d last restore: batched %d, reference %d",
					ctx, b, r, tw.fast.LastRestore(b, r), tw.slow.LastRestore(b, r))
			}
		}
	}
}

// TestPairBurstsWithCoupledAggressorsMatchReference drives random
// double-sided bursts, each after a random single-sided HammerN of its
// rowA, so rowB's cells enter the burst with arbitrary pressure, through
// both pair APIs on both banks. One pair is rigged so that its burst's
// first rowA activation pushes a rowB cell over its threshold. Without
// retention every burst batches, coupled aggressor cells included;
// with it, only pairs holding retention cells decline.
func TestPairBurstsWithCoupledAggressorsMatchReference(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 4}
	for _, tc := range []struct {
		name          string
		withRetention bool
	}{{"disturb", false}, {"with-retention", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newPairTwin(t, g, tc.withRetention)
			// The rigged pair: rows 100 and 102 of bank 1. Row 102's
			// cell at bit 3 is coupled to row 100 with weight 1 and
			// threshold 40; the aggressor bit differs from its charge,
			// so each rowA activation adds exactly 1.
			const bank, rowA, rowB, bit = 1, 100, 102, 3
			tw.model.InjectWeakCell(bank, rowB, bit, 40, 1, 2, 1, 1)
			tw.ref.InjectWeakCell(bank, rowB, bit, 40, 1, 2, 1, 1)
			for _, d := range []*dram.Device{tw.fast, tw.slow} {
				d.SetPhysBit(bank, rowB, bit, 1)
				d.SetPhysBit(bank, rowA, bit, 0)
			}
			now := dram.Time(0)
			tw.fast.HammerN(bank, rowA, 39, now, pairPeriod)
			for i := 0; i < 39; i++ {
				tw.slow.Activate(bank, rowA, now+dram.Time(i)*pairPeriod)
				tw.slow.Precharge(bank)
			}
			now += 39 * pairPeriod
			var ok bool
			now, ok = tw.burst(t, true, bank, rowA, rowB, 50, now)
			if !ok {
				t.Fatal("rigged pair declined")
			}
			if tw.fast.PhysBit(bank, rowB, bit) != 0 {
				t.Fatal("the first rowA activation did not flip the rigged cell; test is vacuous")
			}
			tw.compare(t, "rigged pair")

			src := rng.New(3)
			batched, declined := 0, 0
			for iter := 0; iter < 400; iter++ {
				b := src.Intn(g.Banks)
				v := 2 + src.Intn(g.Rows-4)
				a, c := v-1, v+1
				if src.Bool(0.5) {
					a, c = c, a
				}
				if k := src.Intn(120); k > 0 {
					tw.fast.HammerN(b, a, k, now, pairPeriod)
					for i := 0; i < k; i++ {
						tw.slow.Activate(b, a, now+dram.Time(i)*pairPeriod)
						tw.slow.Precharge(b)
					}
					now += dram.Time(k) * pairPeriod
				}
				cycles := iter%2 == 0
				if !cycles {
					// Open a row nothing couples to the pair.
					far := (v + g.Rows/2) % g.Rows
					tw.fast.Activate(b, far, now)
					tw.slow.Activate(b, far, now)
					now += pairPeriod
				}
				n := 1 + src.Intn(150)
				now, ok = tw.burst(t, cycles, b, a, c, n, now)
				if !cycles {
					tw.fast.Precharge(b)
					tw.slow.Precharge(b)
				}
				if ok {
					batched++
				} else {
					declined++
				}
				if iter%50 == 0 {
					tw.compare(t, "sweep")
				}
			}
			tw.compare(t, "sweep end")
			if batched == 0 || tw.model.TotalFlips() == 0 {
				t.Fatalf("%d batched bursts, %d flips; test is vacuous", batched, tw.model.TotalFlips())
			}
			if !tc.withRetention && declined > 0 {
				t.Fatalf("%d bursts declined without retention cells", declined)
			}
			t.Logf("%d bursts batched, %d declined, %d flips", batched, declined, tw.model.TotalFlips())
		})
	}
}
