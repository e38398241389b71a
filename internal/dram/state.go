package dram

import "repro/internal/snapshot"

// SaveState serializes the device's mutable state: stats, the refresh
// pointer, the remap table, and per bank the open row, charge-restore
// clocks, and every cell bit. Geometry is written first so LoadState
// can refuse a checkpoint taken from a differently shaped device.
// Timing/energy constants and attached fault models are configuration,
// not state — a restored device is rebuilt from its spec and then
// overlaid with this state.
func (d *Device) SaveState(w *snapshot.Writer) {
	w.Tag("dram.Device")
	w.Int(d.Geom.Banks)
	w.Int(d.Geom.Rows)
	w.Int(d.Geom.Cols)
	w.I64(d.Stats.Activates)
	w.I64(d.Stats.Precharges)
	w.I64(d.Stats.Reads)
	w.I64(d.Stats.Writes)
	w.I64(d.Stats.RowRefreshes)
	w.F64(d.Stats.OpEnergyPJ)
	w.Int(d.refreshPtr)
	w.Ints(d.remap.PhysSlice())
	for _, bk := range d.banks {
		w.Int(bk.openPhysRow)
		w.U64(uint64(len(bk.lastRestore)))
		for _, t := range bk.lastRestore {
			w.U64(uint64(t))
		}
		// The whole bank slab, row by row (rows alias one slab, so this
		// is a dense dump of every cell).
		for _, row := range bk.rows {
			for _, word := range row {
				w.U64(word)
			}
		}
	}
}

// LoadState restores state saved by SaveState into a device of the
// same geometry. The payload is staged and validated before any device
// field is mutated; on error the device is unchanged.
func (d *Device) LoadState(r *snapshot.Reader) error {
	r.Tag("dram.Device")
	g := Geometry{Banks: r.Int(), Rows: r.Int(), Cols: r.Int()}
	if err := r.Err(); err != nil {
		return err
	}
	if g != d.Geom {
		return snapshot.Mismatchf("checkpoint device geometry %+v, have %+v", g, d.Geom)
	}
	var st Stats
	st.Activates = r.I64()
	st.Precharges = r.I64()
	st.Reads = r.I64()
	st.Writes = r.I64()
	st.RowRefreshes = r.I64()
	st.OpEnergyPJ = r.F64()
	refreshPtr := r.Int()
	physRemap := r.Ints()
	if err := r.Err(); err != nil {
		return err
	}
	if refreshPtr < 0 || refreshPtr >= g.Rows {
		return snapshot.Corruptf("refresh pointer %d out of range", refreshPtr)
	}
	if len(physRemap) != g.Rows {
		return snapshot.Corruptf("remap table has %d rows, want %d", len(physRemap), g.Rows)
	}
	remap, err := RemapFromPhysSlice(physRemap)
	if err != nil {
		return snapshot.Corruptf("remap table: %v", err)
	}
	type bankState struct {
		open        int
		lastRestore []Time
		slab        []uint64
	}
	staged := make([]bankState, g.Banks)
	for b := range staged {
		open := r.Int()
		n := r.U64()
		if r.Err() == nil && int(n) != g.Rows {
			return snapshot.Corruptf("bank %d has %d restore clocks, want %d", b, n, g.Rows)
		}
		lr := make([]Time, g.Rows)
		for i := range lr {
			lr[i] = Time(r.U64())
		}
		slab := make([]uint64, g.Rows*g.Cols)
		for i := range slab {
			slab[i] = r.U64()
		}
		if err := r.Err(); err != nil {
			return err
		}
		if open < -1 || open >= g.Rows {
			return snapshot.Corruptf("bank %d open row %d out of range", b, open)
		}
		staged[b] = bankState{open: open, lastRestore: lr, slab: slab}
	}
	// Commit.
	d.Stats = st
	d.refreshPtr = refreshPtr
	d.remap = remap
	for b, bk := range d.banks {
		bk.openPhysRow = staged[b].open
		copy(bk.lastRestore, staged[b].lastRestore)
		// Copy into the existing slab so row slices keep aliasing it.
		for rI, row := range bk.rows {
			copy(row, staged[b].slab[rI*g.Cols:(rI+1)*g.Cols])
		}
	}
	return nil
}
