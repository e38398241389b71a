// Package ecc implements the error-correcting codes the paper's
// mitigation analysis refers to. The centerpiece is a real, bit-exact
// SECDED(72,64) extended Hamming code — the code used on ECC DIMMs —
// with which the experiments show the paper's claim that SECDED is
// insufficient against RowHammer because some words collect two or
// more flips. Stronger codes (t-error-correcting block codes and
// chipkill-style symbol codes) are modelled at the capability level:
// what matters to the experiments is which error patterns they
// correct, not their generator polynomials.
package ecc

import "math/bits"

// Codeword72 is a 72-bit SECDED codeword: 64 data bits and 8 check
// bits. Bit 0 of Parity is the overall parity bit; the remaining seven
// cover Hamming positions 1,2,4,8,16,32,64.
type Codeword72 struct {
	// Bits holds codeword positions 0..71; position 0 is the overall
	// parity bit, positions 1..71 are Hamming positions. Packed as
	// two words: Lo holds positions 0..63, Hi positions 64..71.
	Lo uint64
	Hi uint8
}

// dataPositions lists the codeword positions (1..71) that carry data
// bits: every position that is not a power of two.
var dataPositions = func() [64]int {
	var pos [64]int
	i := 0
	for p := 1; p <= 71; p++ {
		if p&(p-1) != 0 { // not a power of two
			pos[i] = p
			i++
		}
	}
	return pos
}()

// hammingMasks[k] selects every codeword position (1..71) whose index
// has bit k set: the positions Hamming check bit 1<<k covers, the check
// position itself included.
var hammingMasks = func() (m [7]Codeword72) {
	for pos := 1; pos <= 71; pos++ {
		for k := range m {
			if pos&(1<<k) != 0 {
				m[k].FlipBit(pos)
			}
		}
	}
	return m
}()

// parity returns the XOR of the codeword positions selected by mask.
// Folding Hi into Lo with XOR keeps the parity, so one popcount does.
func (c Codeword72) parity(mask Codeword72) int {
	return bits.OnesCount64(c.Lo&mask.Lo^uint64(c.Hi&mask.Hi)) & 1
}

// all72 selects every codeword position.
var all72 = Codeword72{Lo: ^uint64(0), Hi: 0xff}

// FlipBit inverts one codeword position (0..71), injecting an error.
func (c *Codeword72) FlipBit(pos int) {
	if pos < 64 {
		c.Lo ^= 1 << uint(pos)
		return
	}
	c.Hi ^= 1 << uint(pos-64)
}

// scatter places data bit i at codeword position dataPositions[i]. The
// data positions form six runs between the check positions: 3, 5-7,
// 9-15, 17-31, 33-63 and 65-71.
func scatter(data uint64) Codeword72 {
	return Codeword72{
		Lo: (data&1)<<3 | (data>>1&0x7)<<5 | (data>>4&0x7f)<<9 |
			(data>>11&0x7fff)<<17 | (data>>26&0x7fffffff)<<33,
		Hi: uint8(data>>57) << 1,
	}
}

// gather is the inverse of scatter: it collects the data bits of a
// codeword, ignoring the check positions.
func gather(c Codeword72) uint64 {
	return c.Lo>>3&1 | (c.Lo>>5&0x7)<<1 | (c.Lo>>9&0x7f)<<4 |
		(c.Lo>>17&0x7fff)<<11 | (c.Lo>>33)<<26 | uint64(c.Hi>>1)<<57
}

// Encode produces the SECDED codeword for a 64-bit data word.
func Encode(data uint64) Codeword72 {
	c := scatter(data)
	// Each check position is covered by its own mask only, so setting
	// one check bit leaves the later parities unchanged.
	for k := range hammingMasks {
		if c.parity(hammingMasks[k]) == 1 {
			c.FlipBit(1 << k)
		}
	}
	// Overall parity: make the XOR of all 72 positions even.
	if c.parity(all72) == 1 {
		c.FlipBit(0)
	}
	return c
}

// Outcome classifies what the SECDED decoder did with a codeword.
type Outcome int

const (
	// OK: no error detected.
	OK Outcome = iota
	// Corrected: a single-bit error was corrected.
	Corrected
	// Detected: a double-bit error was detected but not corrected.
	Detected
	// Miscorrect is never returned by Decode itself (the decoder
	// cannot know); it is used by classification helpers comparing
	// against ground truth.
	Miscorrect
)

// String names the outcome for logs and tables.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected-uncorrectable"
	case Miscorrect:
		return "miscorrected"
	default:
		return "unknown"
	}
}

// Decode runs the SECDED decoder: it returns the decoded data word and
// the decoder's verdict. Error patterns of three or more bits may be
// silently miscorrected, exactly as on real hardware; use Classify to
// compare against ground truth in experiments.
func Decode(c Codeword72) (data uint64, outcome Outcome) {
	syndrome := 0
	for k := range hammingMasks {
		syndrome |= c.parity(hammingMasks[k]) << k
	}
	overall := c.parity(all72)
	switch {
	case syndrome == 0 && overall == 0:
		outcome = OK
	case syndrome == 0 && overall == 1:
		// The overall parity bit itself flipped.
		c.FlipBit(0)
		outcome = Corrected
	case syndrome != 0 && overall == 1:
		// Single-bit error at the syndrome position.
		if syndrome <= 71 {
			c.FlipBit(syndrome)
			outcome = Corrected
		} else {
			outcome = Detected
		}
	default: // syndrome != 0 && overall == 0
		outcome = Detected
	}
	return gather(c), outcome
}

// Classify decodes a (possibly corrupted) codeword and, comparing with
// the original data, reports the true outcome, distinguishing silent
// miscorrections from genuine corrections. This is the experiment-side
// view that hardware does not have.
func Classify(original uint64, corrupted Codeword72) Outcome {
	data, outcome := Decode(corrupted)
	switch outcome {
	case OK:
		if data != original {
			return Miscorrect // silent data corruption
		}
		return OK
	case Corrected:
		if data != original {
			return Miscorrect
		}
		return Corrected
	default:
		return Detected
	}
}

// CheckBits returns the number of check bits SECDED(72,64) adds.
func CheckBits() int { return 8 }

// DataPosition returns the codeword position (1..71) that carries data
// bit i (0..63). Callers injecting data-bit errors into a codeword —
// the controller's ECC layer and the miscorrection hunt — flip these
// positions; check-bit positions (0 and the powers of two) are reached
// directly through FlipBit.
func DataPosition(i int) int { return dataPositions[i] }

// --- Capability-level models for stronger codes ---

// BlockCode models a t-error-correcting, (t+1)-error-detecting block
// code over a data block of DataBits bits (e.g. a shortened BCH code).
// CheckBitsFor gives a standard estimate of its storage overhead.
type BlockCode struct {
	// DataBits is the protected block size in bits.
	DataBits int
	// T is the number of correctable bit errors per block.
	T int
}

// Correctable reports whether an error pattern with the given number
// of flipped bits is corrected by the code.
func (b BlockCode) Correctable(flips int) bool { return flips <= b.T }

// Detectable reports whether the pattern is at least detected
// (corrected or flagged). Patterns beyond T+1 flips may alias; the
// model follows the bounded-distance convention of detecting up to
// T+1.
func (b BlockCode) Detectable(flips int) bool { return flips <= b.T+1 }

// CheckBitsFor estimates the check bits required: t * ceil(log2(n+1))
// for a binary BCH code of length n = DataBits + checkbits (fixpoint
// approximated by one iteration, matching standard BCH tables).
func (b BlockCode) CheckBitsFor() int {
	if b.T == 0 {
		return 0
	}
	m := bits.Len(uint(b.DataBits))
	return b.T * m
}

// Chipkill models a symbol-oriented code (e.g. AMD chipkill) that
// corrects any error pattern confined to one SymbolBits-wide symbol
// and detects any pattern confined to two symbols.
type Chipkill struct {
	// SymbolBits is the symbol width, matching the DRAM device data
	// width (4 for x4 devices).
	SymbolBits int
	// WordBits is the protected word width.
	WordBits int
}

// Correctable reports whether the given error bit positions are
// corrected: true iff all flipped bits fall inside one symbol.
func (c Chipkill) Correctable(positions []int) bool {
	if len(positions) == 0 {
		return true
	}
	sym := positions[0] / c.SymbolBits
	for _, p := range positions[1:] {
		if p/c.SymbolBits != sym {
			return false
		}
	}
	return true
}

// Detectable reports whether the pattern is corrected or detected:
// true iff the flipped bits span at most two symbols.
func (c Chipkill) Detectable(positions []int) bool {
	syms := map[int]bool{}
	for _, p := range positions {
		syms[p/c.SymbolBits] = true
	}
	return len(syms) <= 2
}
