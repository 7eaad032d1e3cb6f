package match

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzDecodeOp: decodeOp never panics, and every op it accepts re-encodes
// through appendAddOp/appendDeleteOp and decodes to the same op, ID and
// values. The round trip compares decoded values, not bytes, because
// binary.Uvarint accepts non-minimal encodings the encoders never write.
func FuzzDecodeOp(f *testing.F) {
	f.Add(appendAddOp(nil, 7, []string{"acme corp", "", "12 main st"}))
	f.Add(appendAddOp(nil, math.MaxUint64, nil))
	f.Add(appendDeleteOp(nil, 3))
	f.Add([]byte{})
	f.Add([]byte{opAdd, 1, 0x81, 0x80, 0x04}) // value count 1<<16+1
	f.Add([]byte{opAdd, 1, 1, 5, 'a'})        // value overruns the frame
	f.Add([]byte{opDelete, 1, 0})             // trailing byte
	f.Add([]byte{9, 1})                       // unknown op code
	f.Fuzz(func(t *testing.T, p []byte) {
		op, id, values, err := decodeOp(p)
		if err != nil {
			return
		}
		var enc []byte
		switch op {
		case opAdd:
			enc = appendAddOp(nil, id, values)
		case opDelete:
			if values != nil {
				t.Fatalf("delete op decoded with values %q", values)
			}
			enc = appendDeleteOp(nil, id)
		default:
			t.Fatalf("decodeOp accepted unknown op code %d", op)
		}
		op2, id2, values2, err := decodeOp(enc)
		if err != nil {
			t.Fatalf("re-encoded op %d (id %d) fails to decode: %v", op, id, err)
		}
		if op2 != op || id2 != id || !slices.Equal(values2, values) {
			t.Fatalf("round trip changed the op: (%d, %d, %q) -> (%d, %d, %q)", op, id, values, op2, id2, values2)
		}
	})
}

// FuzzDecodeSnapHeader: a header decodeSnapHeader accepts has an arity in
// [1, maxSnapshotValues] and a non-negative count, and round-trips through
// appendSnapHeader to the same triple. The last seed encodes arity and
// count 1<<63, which overflow int.
func FuzzDecodeSnapHeader(f *testing.F) {
	f.Add(appendSnapHeader(nil, 3, 42, 1000))
	f.Add(appendSnapHeader(nil, maxSnapshotValues, math.MaxUint64, 0))
	f.Add(appendSnapHeader(nil, 0, 1, 1))
	f.Add(appendSnapHeader(nil, 1, 1, 1)[:len(snapMagic)+2])
	f.Add([]byte("notasnap\x01\x01\x01\x01"))
	huge := binary.AppendUvarint(slices.Clone(snapMagic), 1<<63)
	huge = binary.AppendUvarint(huge, 1)
	f.Add(binary.AppendUvarint(huge, 1<<63))
	f.Fuzz(func(t *testing.T, p []byte) {
		arity, nextID, count, err := decodeSnapHeader(p)
		if err != nil {
			return
		}
		if arity < 1 || arity > maxSnapshotValues || count < 0 {
			t.Fatalf("decodeSnapHeader accepted arity %d, count %d", arity, count)
		}
		a2, n2, c2, err := decodeSnapHeader(appendSnapHeader(nil, arity, nextID, count))
		if err != nil {
			t.Fatalf("re-encoded header (%d, %d, %d) fails to decode: %v", arity, nextID, count, err)
		}
		if a2 != arity || n2 != nextID || c2 != count {
			t.Fatalf("round trip changed the header: (%d, %d, %d) -> (%d, %d, %d)", arity, nextID, count, a2, n2, c2)
		}
	})
}
