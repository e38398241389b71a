// Package attack implements the offensive side of the paper: the
// user-level hammer kernels (single-, double- and many-sided), the
// flip-templating scan an attacker runs to find exploitable bits, and
// an end-to-end simulation of the Project-Zero-style page-table-entry
// privilege escalation, plus the cross-VM covictim scenario. All of it
// runs against the simulated memory system through the ordinary
// controller access path — the attacker has no powers a user-level
// program would not have, except where a scenario explicitly grants
// them (e.g. Drammer-style contiguous placement).
package attack

import (
	"repro/internal/memctrl"
)

// DoubleSided hammers the two rows sandwiching victimRow with the
// given number of activation pairs. Alternating two rows in the same
// bank defeats the row buffer, so every access is an activation —
// exactly the trick the user-level test program relies on instead of
// cache flushes. The controller batches refresh-free runs of the sweep
// when no mitigation is watching.
func DoubleSided(c *memctrl.Controller, bank, victimRow, pairs int) {
	c.HammerPairs(bank, victimRow-1, victimRow+1, pairs)
}

// SingleSided hammers aggrRow against a distant dummy row (the
// original test program's pattern: the dummy forces row-buffer
// conflicts without disturbing the victim's other side).
func SingleSided(c *memctrl.Controller, bank, aggrRow, dummyRow, pairs int) {
	c.HammerPairs(bank, aggrRow, dummyRow, pairs)
}

// ManySided cycles through many aggressor rows, the pattern that
// defeats sampler-based in-DRAM mitigations (TRR) by exceeding the
// sampler's capacity. rounds is the number of full cycles.
func ManySided(c *memctrl.Controller, bank int, aggressors []int, rounds int) {
	ManySidedRanked(c, 0, bank, aggressors, rounds)
}

// ManySidedRanked is ManySided on an explicit rank of a multi-rank
// channel: NSidedRanked without decoys, so two aggressors take the
// batched HammerPairs path.
func ManySidedRanked(c *memctrl.Controller, rank, bank int, aggressors []int, rounds int) {
	NSidedRanked(c, rank, bank, aggressors, nil, rounds)
}

// FlipTemplate records one reproducible bit flip found by scanning:
// hammering the two aggressor rows flips bit Bit of VictimRow from
// From to 1-From.
type FlipTemplate struct {
	Bank      int
	VictimRow int
	Bit       int
	From      uint64
	AggrUp    int
	AggrDown  int
}

// writeRow fills a logical row with a pattern through the controller.
func writeRow(c *memctrl.Controller, bank, row int, pattern uint64) {
	for col := 0; col < c.Map().Geom.Cols; col++ {
		c.AccessCoord(memctrl.Coord{Bank: bank, Row: row, Col: col}, true, pattern)
	}
}

// readRow reads a logical row through the controller.
func readRow(c *memctrl.Controller, bank, row int) []uint64 {
	out := make([]uint64, c.Map().Geom.Cols)
	for col := range out {
		out[col], _ = c.AccessCoord(memctrl.Coord{Bank: bank, Row: row, Col: col}, false, 0)
	}
	return out
}

// Scan is the templating pass: for every interior victim row, fill the
// victim with the given pattern and the aggressors with its complement
// (the row-stripe configuration that maximizes coupling), double-side
// hammer for pairsPerRow pairs, and record every flipped bit as a
// template.
func Scan(c *memctrl.Controller, bank int, pattern uint64, pairsPerRow int) []FlipTemplate {
	rows := c.Map().Geom.Rows
	var out []FlipTemplate
	for v := 1; v < rows-1; v++ {
		writeRow(c, bank, v-1, ^pattern)
		writeRow(c, bank, v, pattern)
		writeRow(c, bank, v+1, ^pattern)
		DoubleSided(c, bank, v, pairsPerRow)
		got := readRow(c, bank, v)
		for col, word := range got {
			diff := word ^ pattern
			for diff != 0 {
				b := trailingZeros(diff)
				bit := col*64 + b
				out = append(out, FlipTemplate{
					Bank: bank, VictimRow: v, Bit: bit,
					From:   (pattern >> uint(b)) & 1,
					AggrUp: v - 1, AggrDown: v + 1,
				})
				diff &= diff - 1
			}
		}
		// Repair the victim for the next iteration.
		writeRow(c, bank, v, pattern)
	}
	return out
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
