package retention

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func retentionParams() Params {
	p := DefaultParams()
	p.WeakFraction = 5e-4
	p.MedianSec = 0.5
	p.VRTFraction = 0.5 // heavy VRT so the draw stream is exercised
	p.VRTDwellSec = 2
	return p
}

func buildRetention(seed uint64) (*dram.Device, *Model) {
	g := dram.Geometry{Banks: 2, Rows: 128, Cols: 8}
	d := dram.NewDevice(g)
	m := NewModel(g, retentionParams(), rng.New(seed))
	d.AttachFault(m)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, 0xaaaaaaaaaaaaaaaa)
		}
	}
	return d, m
}

// refreshStorms advances simulated time across n long refresh
// intervals, letting cells decay and VRT state evolve (consuming
// ongoing stream draws).
func refreshStorms(d *dram.Device, start dram.Time, n int) dram.Time {
	now := start
	for i := 0; i < n; i++ {
		now += 3 * dram.Second
		for b := 0; b < d.Geom.Banks; b++ {
			d.RefreshBankAll(b, now)
		}
	}
	return now
}

func cellHash(d *dram.Device) uint64 {
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

// TestModelStateRoundTripBitIdentical pins that a retention campaign
// checkpointed mid-run and resumed into a freshly built model finishes
// bit-identical to the uninterrupted run — including the VRT draw
// stream position, which keeps advancing after the checkpoint.
func TestModelStateRoundTripBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		dRef, mRef := buildRetention(seed)
		mid := refreshStorms(dRef, 0, 10)
		refreshStorms(dRef, mid, 10)

		dA, mA := buildRetention(seed)
		midA := refreshStorms(dA, 0, 10)
		var dw, mw snapshot.Writer
		dA.SaveState(&dw)
		mA.SaveState(&mw)

		dB, mB := buildRetention(seed)
		if err := dB.LoadState(snapshot.NewReader(dw.Bytes())); err != nil {
			t.Fatalf("seed %d: device LoadState: %v", seed, err)
		}
		if err := mB.LoadState(snapshot.NewReader(mw.Bytes())); err != nil {
			t.Fatalf("seed %d: model LoadState: %v", seed, err)
		}
		refreshStorms(dB, midA, 10)

		if mB.Decays() != mRef.Decays() {
			t.Fatalf("seed %d: decays %d after resume, want %d", seed, mB.Decays(), mRef.Decays())
		}
		if mB.Decays() == 0 {
			t.Fatalf("seed %d: campaign produced no decays; test is vacuous", seed)
		}
		if cellHash(dB) != cellHash(dRef) {
			t.Fatalf("seed %d: device contents differ after resume", seed)
		}
	}
}

func TestModelLoadStateRejectsParamMismatch(t *testing.T) {
	g := dram.Geometry{Banks: 1, Rows: 64, Cols: 8}
	m := NewModel(g, retentionParams(), rng.New(1))
	var w snapshot.Writer
	m.SaveState(&w)
	other := retentionParams()
	other.TemperatureC = 60
	m2 := NewModel(g, other, rng.New(1))
	err := m2.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// TestModelLoadStateRejectsHugeCellCount pins that a corrupt cell count
// is refused before anything is sized from it: a payload claiming 1<<40
// cells must fail with ErrCorrupt, not allocate for them.
func TestModelLoadStateRejectsHugeCellCount(t *testing.T) {
	_, m := buildRetention(3)
	var w snapshot.Writer
	m.SaveState(&w)
	b := w.Bytes()
	// The cell count is the last fixed field; 51 bytes per cell follow.
	off := len(b) - 51*len(m.cells) - 8
	binary.BigEndian.PutUint64(b[off:], 1<<40)
	fresh := NewModel(m.geom, m.params, rng.New(3))
	if err := fresh.LoadState(snapshot.NewReader(b)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}
