package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/snapshot"
)

// snapKind tags the in-memory snapshots the benchmark restores from.
const snapKind = "perfbench/system"

// save snapshots a whole system (controllers, devices, mitigations,
// fault models) into the checksummed snapshot container.
func save(tr *tracer, unit string, s *core.System) ([]byte, error) {
	sp := tr.begin("snapshot.save", unit)
	b, err := snapshot.Encode(snapKind, 1, func(w *snapshot.Writer) error {
		s.SaveState(w)
		return nil
	})
	tr.end(sp, int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("snapshot save: %w", err)
	}
	return b, nil
}

// load restores a snapshot taken by save into a system built from the
// same spec.
func load(tr *tracer, unit string, s *core.System, b []byte) error {
	sp := tr.begin("snapshot.load", unit)
	defer tr.end(sp, int64(len(b)))
	r, _, err := snapshot.Decode(b, snapKind, 1)
	if err == nil {
		err = s.LoadState(r)
	}
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	return nil
}

// counts are a system's statistics, cumulative at one moment or the
// difference of two moments: controller and device stats summed over
// channels and ranks, cells the disturbance model flipped and cells the
// retention model decayed.
type counts struct {
	ctrl          memctrl.Stats
	dev           dram.Stats
	flips, decays int64
}

func counters(s *core.System) counts {
	c := counts{ctrl: s.Mem.AggregateStats(), dev: s.Mem.AggregateDeviceStats(), flips: s.TotalFlips()}
	for _, rms := range s.Retentions {
		for _, rm := range rms {
			c.decays += rm.Decays()
		}
	}
	return c
}

// minus returns the statistics accumulated since before.
func (c counts) minus(before counts) counts {
	a, b := c.ctrl, before.ctrl
	ctrl := memctrl.Stats{
		Accesses:      a.Accesses - b.Accesses,
		RowHits:       a.RowHits - b.RowHits,
		RowMisses:     a.RowMisses - b.RowMisses,
		RowConflicts:  a.RowConflicts - b.RowConflicts,
		AutoRefreshes: a.AutoRefreshes - b.AutoRefreshes,
		MitRefreshes:  a.MitRefreshes - b.MitRefreshes,
		ECCCorrected:  a.ECCCorrected - b.ECCCorrected,
		ECCDetected:   a.ECCDetected - b.ECCDetected,
		ECCSilent:     a.ECCSilent - b.ECCSilent,
		BusyTime:      a.BusyTime - b.BusyTime,
		RefreshTime:   a.RefreshTime - b.RefreshTime,
		MitTime:       a.MitTime - b.MitTime,
	}
	da, db := c.dev, before.dev
	dev := dram.Stats{
		Activates:    da.Activates - db.Activates,
		Precharges:   da.Precharges - db.Precharges,
		Reads:        da.Reads - db.Reads,
		Writes:       da.Writes - db.Writes,
		RowRefreshes: da.RowRefreshes - db.RowRefreshes,
		OpEnergyPJ:   da.OpEnergyPJ - db.OpEnergyPJ,
	}
	return counts{ctrl: ctrl, dev: dev, flips: c.flips - before.flips, decays: c.decays - before.decays}
}

// systemDigest hashes every simulated statistic the benchmark can read
// — each channel's controller stats and clock, each device's stats
// and cell contents, the fault models' flip and decay counts — and
// the workload's own results in extra. Fields are named one by one, so
// a counter added to a Stats struct later leaves the pins valid.
func systemDigest(s *core.System, extra ...any) string {
	h := sha256.New()
	var word [8]byte
	for ch := 0; ch < s.Topo.Channels; ch++ {
		c := s.Mem.Controller(ch)
		st := c.Stats
		fmt.Fprintf(h, "ch%d acc=%d hit=%d miss=%d conflict=%d ref=%d mitref=%d ecc=%d/%d/%d busy=%d reft=%d mitt=%d now=%d\n",
			ch, st.Accesses, st.RowHits, st.RowMisses, st.RowConflicts, st.AutoRefreshes, st.MitRefreshes,
			st.ECCCorrected, st.ECCDetected, st.ECCSilent, st.BusyTime, st.RefreshTime, st.MitTime, c.Now())
		for rk := 0; rk < s.Topo.Ranks; rk++ {
			d := s.Mem.Device(ch, rk)
			ds := d.Stats
			fmt.Fprintf(h, "rk%d act=%d pre=%d rd=%d wr=%d rowref=%d pj=%v flips=%d decays=%d\n",
				rk, ds.Activates, ds.Precharges, ds.Reads, ds.Writes, ds.RowRefreshes, ds.OpEnergyPJ,
				s.Disturbs[ch][rk].TotalFlips(), s.Retentions[ch][rk].Decays())
			for b := 0; b < s.Topo.Geom.Banks; b++ {
				for r := 0; r < s.Topo.Geom.Rows; r++ {
					for _, w := range d.PhysRowWords(b, r) {
						binary.LittleEndian.PutUint64(word[:], w)
						h.Write(word[:])
					}
				}
			}
		}
	}
	fmt.Fprintln(h, extra...)
	return hex.EncodeToString(h.Sum(nil))
}

// setupLayers maps each setup metric to the spans it sums.
var setupLayers = [][2]string{
	{"core.build_s", "core.build"},
	{"attack.template_s", "attack.template"},
	{"snapshot.save_s", "snapshot.save"},
	{"workload.gen_s", "workload.gen"},
}

// setupMetrics reports each setup layer's time per setup: the median
// over setup repetitions of the summed spans of one repetition.
func setupMetrics(setup []span) map[string]float64 {
	out := map[string]float64{}
	for _, l := range setupLayers {
		var reps []string
		perRep := map[string]float64{}
		for _, s := range setup {
			if s.Name != l[1] {
				continue
			}
			if _, ok := perRep[s.Unit]; !ok {
				reps = append(reps, s.Unit)
			}
			perRep[s.Unit] += float64(s.dur()) / 1e9
		}
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = perRep[r]
		}
		out[l[0]] = median(v)
	}
	return out
}

// addTiming reports samples as name (median), name.tail and name.n.
func addTiming(out map[string]float64, name string, samples []float64) {
	t := summarize(samples)
	out[name] = t.median
	out[name+".tail"] = t.tail
	out[name+".n"] = float64(t.n)
}

// addCounters reports the controller, device and fault-model counters
// summed over one pass's units.
func addCounters(out map[string]float64, units []counts) {
	var c counts
	for _, u := range units {
		c.ctrl.Add(u.ctrl)
		c.dev.RowRefreshes += u.dev.RowRefreshes
		c.decays += u.decays
	}
	out["memctrl.row_hits"] = float64(c.ctrl.RowHits)
	out["memctrl.row_misses"] = float64(c.ctrl.RowMisses)
	out["memctrl.row_conflicts"] = float64(c.ctrl.RowConflicts)
	out["memctrl.auto_refreshes"] = float64(c.ctrl.AutoRefreshes)
	out["memctrl.ecc.corrected"] = float64(c.ctrl.ECCCorrected)
	out["memctrl.ecc.detected"] = float64(c.ctrl.ECCDetected)
	out["memctrl.ecc.silent"] = float64(c.ctrl.ECCSilent)
	out["dram.row_refreshes"] = float64(c.dev.RowRefreshes)
	out["retention.decays"] = float64(c.decays)
}
