package ecc

// The bit-serial SECDED codec that Encode and Decode replaced, kept as
// the oracle the word-parallel code is pinned to: it walks the 72
// codeword positions one bit at a time, exactly as the definition of
// the extended Hamming code reads.

import (
	"testing"

	"repro/internal/rng"
)

func (c Codeword72) bit(pos int) uint64 {
	if pos < 64 {
		return (c.Lo >> uint(pos)) & 1
	}
	return uint64((c.Hi >> uint(pos-64)) & 1)
}

func (c *Codeword72) setBit(pos int, v uint64) {
	if c.bit(pos) != v&1 {
		c.FlipBit(pos)
	}
}

func oracleEncode(data uint64) Codeword72 {
	var c Codeword72
	for i, pos := range dataPositions {
		c.setBit(pos, (data>>uint(i))&1)
	}
	// Hamming parity bits: parity p covers positions with bit p set.
	for p := 1; p <= 64; p <<= 1 {
		var par uint64
		for pos := 1; pos <= 71; pos++ {
			if pos&p != 0 && pos != p {
				par ^= c.bit(pos)
			}
		}
		c.setBit(p, par)
	}
	// Overall parity: make the XOR of all 72 positions even.
	var all uint64
	for pos := 1; pos <= 71; pos++ {
		all ^= c.bit(pos)
	}
	c.setBit(0, all)
	return c
}

func oracleDecode(c Codeword72) (data uint64, outcome Outcome) {
	syndrome := 0
	for p := 1; p <= 64; p <<= 1 {
		var par uint64
		for pos := 1; pos <= 71; pos++ {
			if pos&p != 0 {
				par ^= c.bit(pos)
			}
		}
		if par != 0 {
			syndrome |= p
		}
	}
	var overall uint64
	for pos := 0; pos <= 71; pos++ {
		overall ^= c.bit(pos)
	}
	switch {
	case syndrome == 0 && overall == 0:
		outcome = OK
	case syndrome == 0 && overall == 1:
		c.setBit(0, c.bit(0)^1)
		outcome = Corrected
	case syndrome != 0 && overall == 1:
		if syndrome <= 71 {
			c.setBit(syndrome, c.bit(syndrome)^1)
			outcome = Corrected
		} else {
			outcome = Detected
		}
	default:
		outcome = Detected
	}
	for i, pos := range dataPositions {
		data |= c.bit(pos) << uint(i)
	}
	return data, outcome
}

// TestECCWordParallelMatchesBitSerial pins Encode to the bit-serial
// oracle on random data words, and Decode's data and outcome on every
// error pattern of weight <= 3 (72 + 2,556 + 59,640 = 62,268 patterns)
// applied to several random data words, plus the clean codeword.
func TestECCWordParallelMatchesBitSerial(t *testing.T) {
	src := rng.New(0x5EC)
	for i := 0; i < 20000; i++ {
		data := src.Uint64()
		if got, want := Encode(data), oracleEncode(data); got != want {
			t.Fatalf("Encode(%#x) = %+v, oracle %+v", data, got, want)
		}
	}
	check := func(c Codeword72, flips ...int) {
		for _, p := range flips {
			c.FlipBit(p)
		}
		gotData, gotOut := Decode(c)
		wantData, wantOut := oracleDecode(c)
		if gotData != wantData || gotOut != wantOut {
			t.Fatalf("flips %v of %+v: Decode (%#x, %v), oracle (%#x, %v)",
				flips, c, gotData, gotOut, wantData, wantOut)
		}
	}
	patterns := 0
	for w := 0; w < 4; w++ {
		clean := Encode(src.Uint64())
		check(clean)
		for a := 0; a < 72; a++ {
			check(clean, a)
			for b := a + 1; b < 72; b++ {
				check(clean, a, b)
				for c := b + 1; c < 72; c++ {
					check(clean, a, b, c)
					if w == 0 {
						patterns++
					}
				}
				if w == 0 {
					patterns++
				}
			}
			if w == 0 {
				patterns++
			}
		}
	}
	if patterns != 62268 {
		t.Fatalf("enumerated %d error patterns, want 62268", patterns)
	}
}
