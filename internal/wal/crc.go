package wal

// CRC-32C combine: the CRC of a‖b from the CRCs of a and b and the length
// of b, without reading either again. hash/crc32 exports none, so this is
// zlib's crc32_combine (multmodp, x2nmodp) over the Castagnoli
// polynomial. A CRC is a polynomial over GF(2) in reflected bit order,
// bit 31 the coefficient of x^0.

// castagnoliPoly is the Castagnoli polynomial, reflected.
const castagnoliPoly = 0x82f63b78

// crc32cX2n holds x^(2^k) modulo the polynomial, for k = 0..31.
var crc32cX2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// multModP is a(x)·b(x) modulo the polynomial. a must not be 0.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliPoly
		} else {
			b >>= 1
		}
	}
}

// x8nModP is x^(8n) modulo the polynomial: the shift of a CRC past n
// zero bytes.
func x8nModP(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(crc32cX2n[k&31], p)
		}
	}
	return p
}

// crc32cCombine is the CRC-32C of a‖b, given crcA of a, crcB of b and
// lenB = len(b).
func crc32cCombine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(x8nModP(lenB), crcA) ^ crcB
}
