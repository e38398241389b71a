package memctrl

// Equivalence tests for Controller.HammerPairs: the batched sweep must
// be bit-identical to the naive AccessCoord loop — same timing, same
// auto-refresh interleaving, same stats, same energy, same fault
// physics.

import (
	"bytes"
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/modules"
	"repro/internal/retention"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/spd"
)

// hammerSystem is a controller over one or more ranks, each with
// disturbance (and optionally retention) physics, for the twin
// comparison.
type hammerSystem struct {
	devs []*dram.Device
	ctrl *Controller
	dms  []*disturb.Model
}

func newHammerSystem(t testing.TB, g dram.Geometry, seed uint64, withRetention bool, mult float64) *hammerSystem {
	return newHammerRig(t, g, 1, seed, withRetention, Config{RefreshMultiplier: mult})
}

func newHammerRig(t testing.TB, g dram.Geometry, ranks int, seed uint64, withRetention bool, cfg Config) *hammerSystem {
	t.Helper()
	s := &hammerSystem{}
	for rk := 0; rk < ranks; rk++ {
		dev := dram.NewDevice(g)
		p := disturb.DefaultParams()
		p.WeakCellFraction = 2e-3
		p.ThresholdMedian = 3000
		p.MinThreshold = 400
		p.Dist2Fraction = 0.2
		rs := seed + uint64(rk)*0x51
		dm := disturb.NewModel(g, p, rng.New(rs))
		dev.AttachFault(dm)
		if withRetention {
			rp := retention.DefaultParams()
			rp.WeakFraction = 2e-3 // dense enough that hammered rows hold cells
			rm := retention.NewModel(g, rp, rng.New(rs^0x9e3779b9))
			dev.AttachFault(rm)
		}
		for b := 0; b < g.Banks; b++ {
			for r := 0; r < g.Rows; r++ {
				pat := uint64(0xaaaaaaaaaaaaaaaa)
				if r%2 == 1 {
					pat = 0x5555555555555555
				}
				dev.FillPhysRow(b, r, pat)
			}
		}
		s.devs = append(s.devs, dev)
		s.dms = append(s.dms, dm)
	}
	s.ctrl = NewMultiRank(s.devs, cfg)
	return s
}

// compareSystems requires bit-identical controller time, stats, energy
// and memory contents.
func compareSystems(t *testing.T, a, b *hammerSystem, ctx string) {
	t.Helper()
	if a.ctrl.Now() != b.ctrl.Now() {
		t.Fatalf("%s: now: batched %d, naive %d", ctx, a.ctrl.Now(), b.ctrl.Now())
	}
	if a.ctrl.Stats != b.ctrl.Stats {
		t.Fatalf("%s: controller stats:\nbatched %+v\nnaive   %+v", ctx, a.ctrl.Stats, b.ctrl.Stats)
	}
	for rk, da := range a.devs {
		db := b.devs[rk]
		if da.Stats != db.Stats {
			t.Fatalf("%s: rank %d device stats:\nbatched %+v\nnaive   %+v", ctx, rk, da.Stats, db.Stats)
		}
		if fa, fb := a.dms[rk].TotalFlips(), b.dms[rk].TotalFlips(); fa != fb {
			t.Fatalf("%s: rank %d flips: batched %d, naive %d", ctx, rk, fa, fb)
		}
		g := da.Geom
		for bank := 0; bank < g.Banks; bank++ {
			if da.OpenRow(bank) != db.OpenRow(bank) {
				t.Fatalf("%s: rank %d open row bank %d: batched %d, naive %d", ctx, rk, bank, da.OpenRow(bank), db.OpenRow(bank))
			}
			for row := 0; row < g.Rows; row++ {
				wa, wb := da.PhysRowWords(bank, row), db.PhysRowWords(bank, row)
				for c := range wa {
					if wa[c] != wb[c] {
						t.Fatalf("%s: rank %d bank %d row %d col %d: batched %#x, naive %#x", ctx, rk, bank, row, c, wa[c], wb[c])
					}
				}
				if da.LastRestore(bank, row) != db.LastRestore(bank, row) {
					t.Fatalf("%s: rank %d lastRestore bank %d row %d: batched %d, naive %d",
						ctx, rk, bank, row, da.LastRestore(bank, row), db.LastRestore(bank, row))
				}
			}
		}
	}
}

// coupledAggressorCells injects, into every even physical row of every
// rank and bank, a distance-2 cell coupled to the rows two above and
// below. Without remap the even rows are sweepTwins' aggressors, so
// every pair it sweeps holds a cell in one aggressor coupled to the
// other, on both sides as neighbouring victims share a row. The cells
// alternate charge polarity and sit on columns whose aggressor bits
// make data-pattern dependence apply to some and not others. Their
// threshold is above one activation's pressure, so the device must
// batch the pairs around them.
func (s *hammerSystem) coupledAggressorCells() {
	for rk, dev := range s.devs {
		g := dev.Geom
		for b := 0; b < g.Banks; b++ {
			for row := 2; row < g.Rows-2; row += 2 {
				bit := 64*(row%g.Cols) + row%61
				s.dms[rk].InjectWeakCell(b, row, bit, 600, uint64(row/2%2), 2, 1, 0.6)
			}
		}
	}
}

func naiveHammerPairs(c *Controller, rank, bank, rowA, rowB, pairs int) {
	coA := Coord{Bank: bank, Row: rowA}
	coB := Coord{Bank: bank, Row: rowB}
	for i := 0; i < pairs; i++ {
		c.AccessRanked(rank, coA, false, 0)
		c.AccessRanked(rank, coB, false, 0)
	}
}

// sweepTwins hammers every odd victim of every rank and bank, batched
// on fast and access by access on slow, and returns the pairs issued
// per rig. Neighbouring victims share an aggressor row, so the two rows
// of a pair enter it with different counts, and the uneven pair counts
// end sweeps mid-window.
func sweepTwins(fast, slow *hammerSystem) int {
	g := fast.devs[0].Geom
	pairs := 0
	for rk := range fast.devs {
		for b := 0; b < g.Banks; b++ {
			for v := 1; v < g.Rows-1; v += 2 {
				n := 500 + 37*(v%11)
				fast.ctrl.HammerPairsRanked(rk, b, v-1, v+1, n)
				naiveHammerPairs(slow.ctrl, rk, b, v-1, v+1, n)
				pairs += n
			}
		}
	}
	return pairs
}

func TestHammerPairsMatchesAccessLoop(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	for _, tc := range []struct {
		name          string
		withRetention bool
		mult          float64
	}{
		{"disturb-only", false, 1},
		{"with-retention", true, 1},
		{"refresh-2x", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := newHammerSystem(t, g, 11, tc.withRetention, tc.mult)
			slow := newHammerSystem(t, g, 11, tc.withRetention, tc.mult)
			// Sweep several victims with bursts long enough to span
			// many auto-refresh commands (one REF per ~159 accesses).
			for v := 1; v < g.Rows-1; v += 9 {
				fast.ctrl.HammerPairs(0, v-1, v+1, 2000)
				naiveHammerPairs(slow.ctrl, 0, 0, v-1, v+1, 2000)
			}
			if fast.ctrl.Stats.AutoRefreshes == 0 {
				t.Fatal("no auto-refresh during sweep; test is vacuous")
			}
			if fast.dms[0].TotalFlips() == 0 {
				t.Fatal("no flips during sweep; test is vacuous")
			}
			compareSystems(t, fast, slow, tc.name)
		})
	}
}

func TestHammerPairsWithRemap(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 4}
	build := func() *hammerSystem {
		s := newHammerSystem(t, g, 21, false, 1)
		s.devs[0].SetRemap(dram.RandomRemap(g.Rows, 0.3, rng.New(5)))
		return s
	}
	fast, slow := build(), build()
	for v := 1; v < g.Rows-1; v += 17 {
		fast.ctrl.HammerPairs(0, v-1, v+1, 1500)
		naiveHammerPairs(slow.ctrl, 0, 0, v-1, v+1, 1500)
	}
	compareSystems(t, fast, slow, "remapped")
}

// TestHammerPairsMitigatedMatchesAccessLoop proves the horizon
// contract: with each mitigation attached, alone and stacked, the
// batched sweep (runs capped at every mitigation's Horizon and observed
// in bulk through ObserveN) leaves the controller, the devices, the
// fault models and every mitigation's saved state bit-identical to the
// per-access loop. The sweeps cross many REF commands (TRR drains,
// TWiCe prunes) and, with WindowREFs pinned short, many counter-window
// resets; the 2-rank rig puts the hammered rows on flat banks that
// differ from their bank index, and the remapped rig separates logical
// from physical adjacency.
func TestHammerPairsMitigatedMatchesAccessLoop(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 96, Cols: 4}
	const (
		threshold = 700
		window    = 24 // REF commands per counter window
	)
	para := func(where Placement, seed uint64) func(*hammerSystem) Mitigation {
		return func(s *hammerSystem) Mitigation {
			var oracle *spd.AdjacencyOracle
			if where == InControllerWithSPD {
				rt, err := spd.Decode(spd.Encode(s.devs[0].Remap()))
				if err != nil {
					t.Fatal(err)
				}
				oracle = spd.NewOracle(rt)
			}
			return NewPARA(0.02, where, oracle, rng.New(seed))
		}
	}
	trr := func(*hammerSystem) Mitigation { return NewTRR(4, 0.01, rng.New(5)) }
	cra := func(s *hammerSystem) Mitigation {
		m := NewCRA(threshold, len(s.devs)*g.Banks, g.Rows)
		m.WindowREFs = window
		return m
	}
	graphene := func(s *hammerSystem) Mitigation {
		m := NewGraphene(4, threshold, len(s.devs)*g.Banks)
		m.WindowREFs = window
		return m
	}
	twice := func(s *hammerSystem) Mitigation {
		m := NewTWiCe(threshold, len(s.devs)*g.Banks)
		m.WindowREFs = window
		return m
	}
	anvil := func(*hammerSystem) Mitigation { return NewANVIL() }
	scaling := func(*hammerSystem) Mitigation { return NewRefreshScaling(2) }
	all := []func(*hammerSystem) Mitigation{para(InDRAM, 6), trr, cra, graphene, twice, anvil}
	for _, tc := range []struct {
		name  string
		ranks int
		remap bool
		mits  []func(*hammerSystem) Mitigation
		// coupled injects coupledAggressorCells.
		coupled bool
	}{
		{"PARA/controller", 1, false, []func(*hammerSystem) Mitigation{para(InController, 1)}, false},
		{"PARA/controller+SPD", 1, true, []func(*hammerSystem) Mitigation{para(InControllerWithSPD, 2)}, false},
		{"PARA/in-DRAM", 1, false, []func(*hammerSystem) Mitigation{para(InDRAM, 3)}, false},
		{"TRR", 1, false, []func(*hammerSystem) Mitigation{trr}, false},
		{"TRR/sample-all", 1, false, []func(*hammerSystem) Mitigation{
			func(*hammerSystem) Mitigation { return NewTRR(4, 1, rng.New(7)) }}, false},
		{"CRA", 1, false, []func(*hammerSystem) Mitigation{cra}, false},
		{"Graphene", 1, false, []func(*hammerSystem) Mitigation{graphene}, false},
		{"TWiCe", 1, false, []func(*hammerSystem) Mitigation{twice}, false},
		{"ANVIL", 1, false, []func(*hammerSystem) Mitigation{anvil}, false},
		{"PARA+CRA", 1, false, []func(*hammerSystem) Mitigation{para(InController, 4), cra}, false},
		{"RefreshScaling+TRR", 1, false, []func(*hammerSystem) Mitigation{scaling, trr}, false},
		{"all/2-rank", 2, false, all, false},
		{"all/remapped", 1, true, all, false},
		{"all/coupled", 2, false, all, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*hammerSystem, []Mitigation) {
				s := newHammerRig(t, g, tc.ranks, 31, false, Config{})
				if tc.remap {
					for rk, dev := range s.devs {
						dev.SetRemap(dram.RandomRemap(g.Rows, 0.3, rng.New(uint64(9+rk))))
					}
				}
				if tc.coupled {
					s.coupledAggressorCells()
				}
				var mits []Mitigation
				for _, mk := range tc.mits {
					m := mk(s)
					s.ctrl.Attach(m)
					mits = append(mits, m)
				}
				return s, mits
			}
			fast, fastMits := build()
			slow, slowMits := build()
			pairs := sweepTwins(fast, slow)
			compareSystems(t, fast, slow, tc.name)
			for i, m := range fastMits {
				sm, ok := m.(StatefulMitigation)
				if !ok {
					continue
				}
				var wa, wb snapshot.Writer
				sm.SaveState(&wa)
				slowMits[i].(StatefulMitigation).SaveState(&wb)
				if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
					t.Fatalf("%s: %s saved state differs between batched and naive sweeps", tc.name, m.Name())
				}
			}
			if fast.ctrl.Stats.MitRefreshes == 0 {
				t.Fatal("no mitigation refresh during the sweep; test is vacuous")
			}
			if fast.ctrl.batchedPairs == 0 {
				t.Fatal("no pair took the batched path; test is vacuous")
			}
			if tc.coupled && fast.ctrl.pairsDeclined != 0 {
				t.Fatalf("the device declined %d pairs; coupled aggressor cells must batch", fast.ctrl.pairsDeclined)
			}
			t.Logf("%d of %d pairs batched, %d mitigation refreshes",
				fast.ctrl.batchedPairs, pairs, fast.ctrl.Stats.MitRefreshes)
		})
	}
}

// TestECCHammerPairsMatchesAccessLoop proves that applying ECC per
// batched run is exact: under SECDED, in-DRAM ECC and chipkill, with
// aggressor words clean (written through the controller) and dirty
// (corrupted behind it), alone and stacked with PARA or with Graphene
// and a patrol Scrubber, the batched sweep leaves the controller (ECC
// counters, shadow and mitigation state included), the devices and the
// fault models bit-identical to the per-access loop. Dirty aggressors
// carry a 1-bit, a spread 2-bit, a nibble-packed 3-bit and a
// four-nibble 4-bit pattern in col 0, which every code splits across
// all three ECC classes; each row of a pair carries a different one.
func TestECCHammerPairsMatchesAccessLoop(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 4}
	corruptions := [][]int{{7}, {3, 40}, {0, 1, 2}, {0, 17, 33, 50}}
	type rigKind struct {
		name    string
		ranks   int
		remap   bool
		coupled bool // inject coupledAggressorCells
	}
	rigs := []rigKind{{"2-rank", 2, false, false}, {"remapped", 1, true, false}, {"coupled", 2, false, true}}
	type eccCase struct {
		name  string
		kind  ECCKind
		dirty bool
		// scrub marks a case whose patrol Scrubber also classifies
		// words, so not every ECC event comes from a hammer read.
		scrub bool
		mits  func(s *hammerSystem) []Mitigation
	}
	var cases []eccCase
	for _, kind := range []ECCKind{ECCSECDED72, ECCInDRAM, ECCChipkill} {
		cases = append(cases,
			eccCase{kind.String() + "/clean", kind, false, false, nil},
			eccCase{kind.String() + "/dirty", kind, true, false, nil})
	}
	cases = append(cases,
		eccCase{"secded+PARA/dirty", ECCSECDED72, true, false, func(*hammerSystem) []Mitigation {
			return []Mitigation{NewPARA(0.02, InController, nil, rng.New(3))}
		}},
		eccCase{"secded+Graphene+Scrubber/dirty", ECCSECDED72, true, true, func(s *hammerSystem) []Mitigation {
			gr := NewGraphene(4, 700, len(s.devs)*g.Banks)
			gr.WindowREFs = 24
			return []Mitigation{gr, NewScrubber(4)}
		}})
	for _, rig := range rigs {
		for _, tc := range cases {
			name := tc.name + "/" + rig.name
			t.Run(name, func(t *testing.T) {
				build := func() *hammerSystem {
					s := newHammerRig(t, g, rig.ranks, 37, true, Config{ECC: ECCConfig{Kind: tc.kind}})
					if rig.coupled {
						s.coupledAggressorCells()
					}
					for rk, dev := range s.devs {
						if rig.remap {
							dev.SetRemap(dram.RandomRemap(g.Rows, 0.3, rng.New(uint64(13+rk))))
						}
						for b := 0; b < g.Banks; b++ {
							for row := 0; row < g.Rows; row++ {
								pat := uint64(0xaaaaaaaaaaaaaaaa)
								if row%2 == 1 {
									pat = 0x5555555555555555
								}
								for col := 0; col < g.Cols; col++ {
									s.ctrl.AccessRanked(rk, Coord{Bank: b, Row: row, Col: col}, true, pat^uint64(row))
								}
							}
						}
					}
					if tc.dirty {
						for _, dev := range s.devs {
							for b := 0; b < g.Banks; b++ {
								for row := 0; row < g.Rows; row += 2 {
									phys := dev.PhysRow(row)
									for _, bit := range corruptions[(row/2)%len(corruptions)] {
										dev.SetPhysBit(b, phys, bit, dev.PhysBit(b, phys, bit)^1)
									}
								}
							}
						}
					}
					if tc.mits != nil {
						for _, m := range tc.mits(s) {
							s.ctrl.Attach(m)
						}
					}
					return s
				}
				fast, slow := build(), build()
				pairs := sweepTwins(fast, slow)
				compareSystems(t, fast, slow, name)
				var wa, wb snapshot.Writer
				fast.ctrl.SaveState(&wa)
				slow.ctrl.SaveState(&wb)
				if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
					t.Fatalf("%s: controller saved state differs between batched and naive sweeps", name)
				}
				if fast.ctrl.Stats.AutoRefreshes == 0 {
					t.Fatal("no auto-refresh during the sweep; test is vacuous")
				}
				if fast.ctrl.batchedPairs == 0 {
					t.Fatal("no pair took the batched path; test is vacuous")
				}
				st := fast.ctrl.Stats
				if tc.dirty && !tc.scrub && (st.ECCCorrected == 0 || st.ECCDetected == 0 || st.ECCSilent == 0) {
					t.Fatalf("ECC classes %d/%d/%d: a class saw no hammer read; test is vacuous",
						st.ECCCorrected, st.ECCDetected, st.ECCSilent)
				}
				t.Logf("%d of %d pairs batched; ECC %d corrected, %d detected, %d silent",
					fast.ctrl.batchedPairs, pairs, st.ECCCorrected, st.ECCDetected, st.ECCSilent)
			})
		}
	}
}

// TestE21ShapedSweepIsNeverDeviceDeclined pins the disturbance side of
// pair batching on the rig E21's privilege-escalation campaign hammers:
// one bank of 256 rows built from the densified 2013-class module.
// Every (v-1, v+1) sweep whose rows hold no retention cell must batch,
// including sweeps whose aggressor rows hold distance-2 cells coupled
// to the other aggressor (one is injected so the rig has one whatever
// the sampled population), so the device-declined count stays 0. Every
// pair is counted on exactly one path.
func TestE21ShapedSweepIsNeverDeviceDeclined(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 256, Cols: 8}
	var mod modules.Module
	for _, m := range modules.Population(1) {
		if m.Year == 2013 && m.Vulnerable() {
			mod = m.ScaleForSmallArray(100, 30, 2e-3)
			break
		}
	}
	dev, dm, rm := mod.Device(g, 0)
	dm.InjectWeakCell(0, 100, 77, dm.MinThreshold(), 1, 2, 1, 0.5)
	ctrl := New(dev, Config{})
	sweeps, pairs := 0, int64(0)
	for v := 1; v < g.Rows-1; v++ {
		if !rm.BatchablePair(0, v-1, v+1) {
			continue
		}
		ctrl.HammerPairs(0, v-1, v+1, 12000) // E21's pairs per attempt
		sweeps++
		pairs += 12000
	}
	if !rm.BatchablePair(0, 100, 102) {
		t.Fatal("the injected cell's pair holds a retention cell; move the injection")
	}
	c := ctrl
	t.Logf("%d sweeps, %d pairs: %d batched; per access: %d declined, %d not open, %d at REF, %d mitigated; %d flips",
		sweeps, pairs, c.batchedPairs, c.pairsDeclined, c.pairsNotOpen, c.pairsAtREF, c.pairsMitigated, dm.TotalFlips())
	if c.pairsDeclined != 0 {
		t.Fatalf("the device declined %d pairs", c.pairsDeclined)
	}
	if sum := c.batchedPairs + c.pairsDeclined + c.pairsNotOpen + c.pairsAtREF + c.pairsMitigated; sum != pairs {
		t.Fatalf("path counters sum to %d, want the %d pairs issued", sum, pairs)
	}
	if c.batchedPairs == 0 || c.pairsAtREF == 0 || dm.TotalFlips() == 0 {
		t.Fatal("no batched pair, REF boundary or flip; test is vacuous")
	}
}

func TestHammerPairsDegenerateCases(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	fast := newHammerSystem(t, g, 41, false, 1)
	slow := newHammerSystem(t, g, 41, false, 1)
	// Same row on both sides: row hits, no conflicts.
	fast.ctrl.HammerPairs(0, 7, 7, 100)
	naiveHammerPairs(slow.ctrl, 0, 0, 7, 7, 100)
	// Zero pairs: no-op.
	fast.ctrl.HammerPairs(0, 1, 3, 0)
	compareSystems(t, fast, slow, "degenerate")
}

// BenchmarkHammerPairsMitigated measures the double-sided hammer sweep
// with one mitigation, or SECDED and no mitigation, attached, in ns per
// activation, on a device without fault models so the figure is the
// controller, mitigation and ECC read-path cost alone.
func BenchmarkHammerPairsMitigated(b *testing.B) {
	g := dram.Geometry{Banks: 1, Rows: 512, Cols: 4}
	const (
		threshold = 2000
		pairs     = 4000
	)
	for _, bc := range []struct {
		name string
		cfg  Config
		mit  func() Mitigation // nil attaches none
	}{
		{"para", Config{}, func() Mitigation { return NewPARA(0.01, InDRAM, nil, rng.New(1)) }},
		{"trr", Config{}, func() Mitigation { return NewTRR(8, 0.01, rng.New(2)) }},
		{"cra", Config{}, func() Mitigation { return NewCRA(threshold, g.Banks, g.Rows) }},
		{"graphene", Config{}, func() Mitigation { return NewGraphene(8, threshold, g.Banks) }},
		{"twice", Config{}, func() Mitigation { return NewTWiCe(threshold, g.Banks) }},
		{"anvil", Config{}, func() Mitigation { return NewANVIL() }},
		{"secded", Config{ECC: ECCConfig{Kind: ECCSECDED72}}, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctrl := New(dram.NewDevice(g), bc.cfg)
			if bc.mit != nil {
				ctrl.Attach(bc.mit())
			}
			acts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := 1 + 8*(i%60)
				ctrl.HammerPairs(0, v-1, v+1, pairs)
				acts += 2 * pairs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acts), "ns/act")
		})
	}
}
