package metrics

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"

	"repro/internal/strutil"
)

// Residue is the compact remainder of a Reset: the forms Reset derives
// with more than one scan of a value, kept so that a Prepared can be
// rebuilt without deriving them again. For each value of a record it holds
// the normalized string, the ascending order of the distinct tokens (each
// as the byte range of one occurrence in the normalized string, with its
// count) and the numeric parse, encoded back to back in one immutable
// string: one exact-size allocation per record.
//
// Rebuilding from a Residue (RebuildRow) skips normalization, number
// parsing and the token sort; every other form is a scan of the kept
// normalized string or of the raw value. Reset itself derives a residue
// and rebuilds from it, so the rebuild is the one derivation of the forms.
//
// A residue keeps only what the needs it was built for name: rebuilding
// under needs it was not built for reads the forms it lacks as empty. The
// zero Residue keeps nothing.
type Residue struct{ enc string }

// Each value's section of the encoding is
//
//	uvarint n, then the n bytes of the normalized form (n = 0 when not kept)
//	uvarint m, then m bytes of token order: per distinct token, ascending,
//	  uvarint byte offset in the normalized form, uvarint length, uvarint count
//	one byte 1 and the 8 little-endian IEEE bits of the numeric parse,
//	  or one byte 0 when no parse is kept or it failed
//
// Varints keep the common short value to one byte per number and put no
// bound on a value's length or token count.

// needsNorm is every need derived from the normalized form.
const needsNorm = NeedNorm | NeedRunes | NeedTokens | NeedTokenRunes | NeedTokenCounts | NeedAbbr | NeedCompact

// ResidueScratch holds the reusable buffers residues are derived in. The
// zero value is ready to use; one goroutine at a time may use it.
type ResidueScratch struct {
	enc, norm, num []byte
	order          []tokenRun
	toks           []string
}

// tokenRun is one distinct token of a normalized form in decoded order:
// the byte range of one occurrence and the token's count.
type tokenRun struct{ off, len, n int }

// KeepResidue derives the residue of one record's values, value a under
// needs[a] (one entry per attribute, as Catalog.AttrNeeds gives them), into
// one exact-size Residue. Values past the end of vals are "".
func KeepResidue(vals []string, needs []Need, rs *ResidueScratch) Residue {
	rs.enc = rs.enc[:0]
	for a, need := range needs {
		v := ""
		if a < len(vals) {
			v = vals[a]
		}
		rs.enc = rs.appendValue(rs.enc, v, need)
	}
	return Residue{enc: string(rs.enc)}
}

// Size returns the residue's encoded length in bytes.
func (r Residue) Size() int { return len(r.enc) }

// derive computes the residue of one value under needs into rs's buffers:
// the normalized form, the token order and the numeric parse. The results
// are views over rs, valid until its next use.
func (rs *ResidueScratch) derive(raw string, needs Need) (norm string, order []tokenRun, num float64, numOK bool) {
	rs.norm = rs.norm[:0]
	if needs&needsNorm != 0 {
		rs.norm = strutil.AppendNormalized(rs.norm, raw)
	}
	rs.order = rs.order[:0]
	if needs&NeedTokenCounts != 0 {
		rs.order = rs.appendOrder(rs.order, bview(rs.norm))
	}
	if needs&NeedNum != 0 {
		num, numOK = parseNumberReuse(raw, &rs.num)
	}
	return bview(rs.norm), rs.order, num, numOK
}

// appendValue appends the residue section of one value under needs.
func (rs *ResidueScratch) appendValue(dst []byte, raw string, needs Need) []byte {
	norm, order, num, numOK := rs.derive(raw, needs)
	dst = binary.AppendUvarint(dst, uint64(len(norm)))
	dst = append(dst, norm...)
	n := 0
	for _, r := range order {
		n += uvarintLen(r.off) + uvarintLen(r.len) + uvarintLen(r.n)
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, r := range order {
		dst = binary.AppendUvarint(dst, uint64(r.off))
		dst = binary.AppendUvarint(dst, uint64(r.len))
		dst = binary.AppendUvarint(dst, uint64(r.n))
	}
	if !numOK {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(num))
}

// uvarintLen returns how many bytes the uvarint of v takes.
func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// appendOrder appends the token order of a normalized form (single spaces,
// none leading or trailing): its distinct tokens in ascending byte order,
// each as the byte range of one occurrence and its count. The tokens are
// substrings of norm, so an occurrence's offset is its distance from
// norm's first byte.
func (rs *ResidueScratch) appendOrder(dst []tokenRun, norm string) []tokenRun {
	rs.toks = appendSpaceFields(rs.toks[:0], norm)
	slices.Sort(rs.toks)
	base := uintptr(unsafe.Pointer(unsafe.StringData(norm)))
	for i := 0; i < len(rs.toks); {
		j := i + 1
		for j < len(rs.toks) && rs.toks[j] == rs.toks[i] {
			j++
		}
		off := int(uintptr(unsafe.Pointer(unsafe.StringData(rs.toks[i]))) - base)
		dst = append(dst, tokenRun{off: off, len: len(rs.toks[i]), n: j - i})
		i = j
	}
	return dst
}

// decodeOrder appends the token order encoded in order to dst.
func decodeOrder(dst []tokenRun, order string) []tokenRun {
	for len(order) > 0 {
		var off, n, c uint64
		off, order = uvarint(order)
		n, order = uvarint(order)
		c, order = uvarint(order)
		dst = append(dst, tokenRun{off: int(off), len: int(n), n: int(c)})
	}
	return dst
}

// section splits the section at the head of enc into the normalized form,
// the encoded token order and the numeric parse, and returns the rest of
// enc. An empty enc reads as a section that keeps nothing.
func section(enc string) (norm, order string, num float64, numOK bool, rest string) {
	n, enc := uvarint(enc)
	norm, enc = enc[:n], enc[n:]
	n, enc = uvarint(enc)
	order, enc = enc[:n], enc[n:]
	if len(enc) == 0 {
		return norm, order, 0, false, enc
	}
	if enc[0] == 0 {
		return norm, order, 0, false, enc[1:]
	}
	var bits uint64
	for i := 8; i >= 1; i-- {
		bits = bits<<8 | uint64(enc[i])
	}
	return norm, order, math.Float64frombits(bits), true, enc[9:]
}

// uvarint decodes the uvarint at the head of s and returns it with the
// rest of s; an empty s reads as 0.
func uvarint(s string) (uint64, string) {
	var v uint64
	for shift := uint(0); len(s) > 0; shift += 7 {
		b := s[0]
		s = s[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	return v, s
}

// RebuildRow re-points each prepared attribute of row at its value and its
// section of r, deriving the forms needs names (one entry per attribute).
// Values past the end of vals are "". The forms are views over r and vals,
// which are immutable, so they stay valid until the row's next Reset or
// rebuild. The row is 0-alloc in steady state, like Reset.
func RebuildRow(row []Prepared, vals []string, r Residue, needs []Need) {
	enc := r.enc
	for a := range row {
		v := ""
		if a < len(vals) {
			v = vals[a]
		}
		norm, order, num, numOK, rest := section(enc)
		p := &row[a]
		p.rs.order = decodeOrder(p.rs.order[:0], order)
		p.rebuild(v, norm, p.rs.order, num, numOK, needs[a])
		enc = rest
	}
}
