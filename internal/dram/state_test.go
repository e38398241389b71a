package dram

import (
	"errors"
	"testing"

	"repro/internal/snapshot"
)

func TestDeviceStateRoundTrip(t *testing.T) {
	g := Geometry{Banks: 2, Rows: 64, Cols: 8}
	d := NewDevice(g)
	// Non-trivial remap, cell contents, clocks, stats, and an open row.
	rt := IdentityRemap(g.Rows)
	rt.swap(3, 60)
	d.SetRemap(rt)
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			d.FillPhysRow(b, r, uint64(b)<<32|uint64(r)*0x0101010101010101)
		}
	}
	d.Activate(0, 5, 100)
	d.Read(0, 2)
	d.Write(0, 3, 0xdead)
	d.Precharge(0)
	d.Activate(1, 7, 200)
	d.AutoRefresh(300)

	var w snapshot.Writer
	d.SaveState(&w)

	d2 := NewDevice(g)
	if err := d2.LoadState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if d2.Stats != d.Stats {
		t.Fatalf("stats mismatch: %+v vs %+v", d2.Stats, d.Stats)
	}
	if d2.OpenRow(0) != d.OpenRow(0) || d2.OpenRow(1) != d.OpenRow(1) {
		t.Fatal("open-row state mismatch")
	}
	if d2.refreshPtr != d.refreshPtr {
		t.Fatalf("refreshPtr %d vs %d", d2.refreshPtr, d.refreshPtr)
	}
	if d2.PhysRow(3) != d.PhysRow(3) || d2.PhysRow(60) != d.PhysRow(60) {
		t.Fatal("remap table not restored")
	}
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			if d2.LastRestore(b, r) != d.LastRestore(b, r) {
				t.Fatalf("lastRestore mismatch at bank %d row %d", b, r)
			}
			w1, w2 := d.PhysRowWords(b, r), d2.PhysRowWords(b, r)
			for i := range w1 {
				if w1[i] != w2[i] {
					t.Fatalf("cell mismatch at bank %d row %d word %d", b, r, i)
				}
			}
		}
	}
}

func TestDeviceLoadStateRejectsGeometryMismatch(t *testing.T) {
	d := NewDevice(Geometry{Banks: 2, Rows: 64, Cols: 8})
	var w snapshot.Writer
	d.SaveState(&w)
	other := NewDevice(Geometry{Banks: 2, Rows: 128, Cols: 8})
	err := other.LoadState(snapshot.NewReader(w.Bytes()))
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
	// The mismatched load must not have touched the target.
	if other.Stats != (Stats{}) || other.OpenRow(0) != -1 {
		t.Fatal("failed load mutated the device")
	}
}

func TestDeviceLoadStateRejectsTruncation(t *testing.T) {
	d := NewDevice(Geometry{Banks: 1, Rows: 16, Cols: 4})
	var w snapshot.Writer
	d.SaveState(&w)
	full := w.Bytes()
	d2 := NewDevice(Geometry{Banks: 1, Rows: 16, Cols: 4})
	err := d2.LoadState(snapshot.NewReader(full[:len(full)/2]))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestDeviceLoadStateRejectsShortRemap pins that a remap table must
// cover every row: a shorter one would load and then panic on the
// first activation past its end.
func TestDeviceLoadStateRejectsShortRemap(t *testing.T) {
	g := Geometry{Banks: 1, Rows: 16, Cols: 4}
	var w snapshot.Writer
	w.Tag("dram.Device")
	w.Int(g.Banks)
	w.Int(g.Rows)
	w.Int(g.Cols)
	for i := 0; i < 7; i++ { // stats, energy and refresh pointer
		w.U64(0)
	}
	w.Ints([]int{1, 0})
	w.Int(-1)
	w.U64(uint64(g.Rows))
	for i := 0; i < g.Rows+g.Rows*g.Cols; i++ {
		w.U64(0)
	}
	d := NewDevice(g)
	if err := d.LoadState(snapshot.NewReader(w.Bytes())); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if d.PhysRow(g.Rows-1) != g.Rows-1 {
		t.Fatal("failed load replaced the remap table")
	}
}
