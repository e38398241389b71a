package disturb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// hammerHalf drives a deterministic mid-campaign workload: fill, then
// hammer a spread of row pairs hard enough to leave cells with partial
// pressure and some flips.
func hammerHalf(d *dram.Device, m *Model) {
	g := d.Geom
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, 0xffffffffffffffff)
		}
	}
	now := dram.Time(0)
	for b := 0; b < g.Banks; b++ {
		for r := 2; r+2 < g.Rows; r += 7 {
			now = d.HammerN(b, r, 40_000, now, 50) + 50
		}
	}
}

func hammerRest(d *dram.Device) {
	g := d.Geom
	now := dram.Time(1 << 40)
	for b := 0; b < g.Banks; b++ {
		for r := 3; r+3 < g.Rows; r += 5 {
			now = d.HammerN(b, r, 120_000, now, 50) + 50
		}
	}
}

func deviceHash(d *dram.Device) uint64 {
	var h uint64 = 1469598103934665603
	for b := 0; b < d.Geom.Banks; b++ {
		for r := 0; r < d.Geom.Rows; r++ {
			for _, w := range d.PhysRowWords(b, r) {
				h = (h ^ w) * 1099511628211
			}
		}
	}
	return h
}

func buildHammered(seed uint64) (*dram.Device, *Model) {
	g := dram.Geometry{Banks: 2, Rows: 256, Cols: 16}
	p := DefaultParams()
	p.WeakCellFraction = 2e-4
	p.ThresholdMedian = 60e3
	p.MinThreshold = 20e3
	d := dram.NewDevice(g)
	m := NewModel(g, p, rng.New(seed))
	d.AttachFault(m)
	hammerHalf(d, m)
	return d, m
}

// TestModelStateRoundTripBitIdentical pins that saving mid-campaign,
// restoring into a freshly built model, and finishing the campaign
// yields bit-identical flips and device contents to the uninterrupted
// run.
func TestModelStateRoundTripBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		// Uninterrupted reference.
		dRef, mRef := buildHammered(seed)
		hammerRest(dRef)

		// Checkpointed run: save mid-campaign, restore, finish.
		dA, mA := buildHammered(seed)
		var dw, mw snapshot.Writer
		dA.SaveState(&dw)
		mA.SaveState(&mw)

		dB, mB := buildHammered(seed) // rebuilt from spec, then overlaid
		if err := dB.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
			t.Fatalf("seed %d: device LoadState: %v", seed, err)
		}
		if err := mB.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		hammerRest(dB)

		if mB.TotalFlips() != mRef.TotalFlips() {
			t.Fatalf("seed %d: flips %d after resume, want %d", seed, mB.TotalFlips(), mRef.TotalFlips())
		}
		if mB.TotalFlips() == 0 {
			t.Fatalf("seed %d: campaign produced no flips; test is vacuous", seed)
		}
		if deviceHash(dB) != deviceHash(dRef) {
			t.Fatalf("seed %d: device contents differ after resume", seed)
		}
		if dB.Stats != dRef.Stats {
			t.Fatalf("seed %d: device stats differ after resume", seed)
		}
	}
}

func TestModelLoadStateRejectsParamMismatch(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	m := NewModel(g, DefaultParams(), rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	other := DefaultParams()
	other.ThresholdMedian *= 2
	m2 := NewModel(g, other, rng.New(1))
	before := m2.WeakCellCount()
	err := m2.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
	if m2.WeakCellCount() != before {
		t.Fatal("failed load mutated the model")
	}
}

// TestModelLoadStateRejectsHugeCellCount pins that a corrupt cell count
// is refused before anything is sized from it: a payload claiming 1<<40
// cells must fail with ErrCorrupt, not allocate for them.
func TestModelLoadStateRejectsHugeCellCount(t *testing.T) {
	_, m := buildHammered(3)
	var w snapshot.Writer
	m.SaveState(&w)
	b := w.Bytes()
	// The cell count is the last fixed field; 73 bytes per cell follow.
	off := len(b) - 73*len(m.cells) - 8
	binary.BigEndian.PutUint64(b[off:], 1<<40)
	fresh := NewModel(m.geom, m.params, rng.New(3))
	if err := fresh.LoadState(snapshot.NewReader(b)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestModelLoadStateRejectsDupFlagMismatch pins that the duplicate flag,
// which gates batching, is checked against the cells it describes: a
// payload stacking two cells on one (bank,row,bit) while claiming no
// duplicates would load with batching enabled and make batched sweeps
// diverge from per-access ones. Both directions of the mismatch must
// fail with ErrCorrupt and leave the model untouched.
func TestModelLoadStateRejectsDupFlagMismatch(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 2}
	for _, tc := range []struct {
		name    string
		cells   [][3]int // bank, row, bit
		forgeTo byte     // the forged duplicate flag
	}{
		{"duplicates hidden", [][3]int{{0, 10, 3}, {0, 10, 3}}, 0},
		{"duplicates invented", [][3]int{{0, 10, 3}, {0, 11, 3}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewModel(g, Invulnerable(), rng.New(1))
			for _, c := range tc.cells {
				src.InjectWeakCell(c[0], c[1], c[2], 50, 1, 1, 1, 0.5)
			}
			var w snapshot.Writer
			src.SaveState(&w)
			b := w.Bytes()
			// The duplicate flag (one byte) precedes the two flip
			// counters and the cell count; 73 bytes per cell follow.
			off := len(b) - 73*len(src.cells) - 8 - 8 - 8 - 1
			if b[off] == tc.forgeTo {
				t.Fatalf("flag byte already %d; offset is wrong", b[off])
			}
			b[off] = tc.forgeTo
			dst := NewModel(g, Invulnerable(), rng.New(1))
			dst.InjectWeakCell(0, 30, 1, 70, 0, 1, 1, 1)
			var before snapshot.Writer
			dst.SaveState(&before)
			if err := dst.LoadState(snapshot.NewReader(b)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			var after snapshot.Writer
			dst.SaveState(&after)
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed load mutated the model")
			}
		})
	}
}
