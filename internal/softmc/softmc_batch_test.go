package softmc

// Equivalence tests for the engine's batched hammer-kernel fast path:
// a HammerProgram executed against a batch-capable model must leave
// engine, device and physics in exactly the state the instruction-by-
// instruction interpretation leaves. disturb.Reference does not
// implement dram.HammerFaultModel, so driving it forces the fully
// interpreted path and serves as the oracle.

import (
	"testing"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/rng"
)

func batchTwinParams() disturb.Params {
	p := disturb.DefaultParams()
	p.WeakCellFraction = 5e-3
	p.ThresholdMedian = 5000
	p.MinThreshold = 800
	p.Dist2Fraction = 0.2
	return p
}

func fillCheckerboard(d *dram.Device) {
	for b := 0; b < d.Geom.Banks; b++ {
		for r := 0; r < d.Geom.Rows; r++ {
			pat := uint64(0xaaaaaaaaaaaaaaaa)
			if r%2 == 1 {
				pat = 0x5555555555555555
			}
			d.FillPhysRow(b, r, pat)
		}
	}
}

func TestHammerKernelBatchedMatchesInterpreted(t *testing.T) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	devFast := dram.NewDevice(g)
	devSlow := dram.NewDevice(g)
	devFast.AttachFault(disturb.NewModel(g, batchTwinParams(), rng.New(3)))
	ref := disturb.NewReference(g, batchTwinParams(), rng.New(3))
	devSlow.AttachFault(ref)
	fillCheckerboard(devFast)
	fillCheckerboard(devSlow)
	engFast := NewEngine(devFast, 0)
	engSlow := NewEngine(devSlow, 0)

	// A mixed session: hammer kernels interleaved with refresh and a
	// retention-style wait, across banks, plus a second program on the
	// same engine to check state continuity after the fast path.
	progs := func() []*Program {
		var ps []*Program
		for v := 21; v < 40; v += 6 {
			ps = append(ps, HammerProgram(0, v-1, v+1, 4000))
		}
		mixed := &Program{}
		mixed.REF().WAIT(1000)
		mixed.ACT(1, 50).PRE(1).ACT(1, 52).PRE(1)
		mixed.Loop(4, 3000)
		mixed.REF()
		ps = append(ps, mixed)
		return ps
	}
	var fastResults, slowResults []Result
	for _, p := range progs() {
		fastResults = append(fastResults, engFast.Run(p))
	}
	for _, p := range progs() {
		slowResults = append(slowResults, engSlow.Run(p))
	}

	if ref.TotalFlips() == 0 {
		t.Fatal("no flips induced; test is vacuous")
	}
	for i := range fastResults {
		f, s := fastResults[i], slowResults[i]
		if f.EndTime != s.EndTime || f.Cycles != s.Cycles || len(f.Reads) != len(s.Reads) {
			t.Fatalf("program %d: results differ: batched %+v, interpreted %+v", i, f, s)
		}
	}
	compareDevices(t, devFast, devSlow)
}

// compareDevices requires identical stats, bits and restore times.
func compareDevices(t *testing.T, devFast, devSlow *dram.Device) {
	t.Helper()
	if devFast.Stats != devSlow.Stats {
		t.Fatalf("device stats differ:\nbatched     %+v\ninterpreted %+v", devFast.Stats, devSlow.Stats)
	}
	g := devFast.Geom
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			wf, ws := devFast.PhysRowWords(b, r), devSlow.PhysRowWords(b, r)
			for c := range wf {
				if wf[c] != ws[c] {
					t.Fatalf("bank %d row %d col %d: batched %#x, interpreted %#x", b, r, c, wf[c], ws[c])
				}
			}
			if devFast.LastRestore(b, r) != devSlow.LastRestore(b, r) {
				t.Fatalf("lastRestore bank %d row %d: batched %d, interpreted %d",
					b, r, devFast.LastRestore(b, r), devSlow.LastRestore(b, r))
			}
		}
	}
}

// TestHammerKernelCoupledAggressorsMatchInterpreted runs hammer kernels
// whose aggressor rows hold distance-2 cells coupled to the other
// aggressor, on both sides, with both charge polarities and
// data-pattern dependence on and off. The fast path batches every such
// kernel and must match the interpreted run on disturb.Reference.
func TestHammerKernelCoupledAggressorsMatchInterpreted(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	p := disturb.DefaultParams()
	p.WeakCellFraction = 0 // injected cells only; DPD stays on
	devFast, devSlow := dram.NewDevice(g), dram.NewDevice(g)
	model := disturb.NewModel(g, p, rng.New(1))
	ref := disturb.NewReference(g, p, rng.New(1))
	devFast.AttachFault(model)
	devSlow.AttachFault(ref)
	fillCheckerboard(devFast)
	fillCheckerboard(devSlow)
	engFast, engSlow := NewEngine(devFast, 0), NewEngine(devSlow, 0)
	for i := 0; i < 8; i++ {
		v := 5 + 7*i
		rowA, rowB := v-1, v+1
		cv := uint64(i & 1)
		// A cell in each hammered row coupled to the other, and a
		// victim between them. Against the checkerboard fill, the
		// charge cv makes data-pattern dependence apply to the rowB
		// cell for even i and to the other two for odd i.
		for _, c := range []struct {
			row, bit, dist int
			th             float64
		}{{rowA, 2*i + 1, 2, 3}, {rowB, 2*i + 2, 2, 1.5}, {v, 2*i + 3, 1, 2000}} {
			model.InjectWeakCell(0, c.row, c.bit, c.th, cv, c.dist, 1, 0.6)
			ref.InjectWeakCell(0, c.row, c.bit, c.th, cv, c.dist, 1, 0.6)
			devFast.SetPhysBit(0, c.row, c.bit, cv)
			devSlow.SetPhysBit(0, c.row, c.bit, cv)
		}
		if !devFast.PairBatchable(0, rowA, rowB) || !devFast.PairBatchable(0, rowB, rowA) {
			t.Fatalf("victim %d: coupled pair declined", v)
		}
		for _, rows := range [][2]int{{rowA, rowB}, {rowB, rowA}} {
			prog := HammerProgram(0, rows[0], rows[1], 3000)
			f, s := engFast.Run(prog), engSlow.Run(prog)
			if f.EndTime != s.EndTime || f.Cycles != s.Cycles {
				t.Fatalf("victim %d pair %v: batched %+v, interpreted %+v", v, rows, f, s)
			}
		}
	}
	if ref.TotalFlips() == 0 || model.TotalFlips() != ref.TotalFlips() {
		t.Fatalf("flips: batched %d, interpreted %d (zero is vacuous)", model.TotalFlips(), ref.TotalFlips())
	}
	compareDevices(t, devFast, devSlow)
}

func TestHammerKernelRecognizer(t *testing.T) {
	p := HammerProgram(0, 10, 12, 500)
	n, bank, rowA, rowB, ok := hammerKernel(p.Ins, 4)
	if !ok || n != 499 || bank != 0 || rowA != 10 || rowB != 12 {
		t.Fatalf("canonical kernel not recognized: %d %d %d %d %v", n, bank, rowA, rowB, ok)
	}
	// Same row twice is not a hammer kernel.
	same := &Program{}
	same.ACT(0, 7).PRE(0).ACT(0, 7).PRE(0)
	same.Loop(4, 100)
	if _, _, _, _, ok := hammerKernel(same.Ins, 4); ok {
		t.Error("same-row loop must not be recognized")
	}
	// Cross-bank bodies are not a hammer kernel.
	cross := &Program{}
	cross.ACT(0, 7).PRE(0).ACT(1, 9).PRE(1)
	cross.Loop(4, 100)
	if _, _, _, _, ok := hammerKernel(cross.Ins, 4); ok {
		t.Error("cross-bank loop must not be recognized")
	}
	// A wider body is not the kernel.
	wide := &Program{}
	wide.ACT(0, 7).PRE(0).ACT(0, 9).PRE(0).WAIT(5)
	wide.Loop(5, 100)
	if _, _, _, _, ok := hammerKernel(wide.Ins, 5); ok {
		t.Error("5-instruction loop must not be recognized")
	}
}
