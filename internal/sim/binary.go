package sim

import (
	"fmt"

	"repro/internal/bits"
)

// AppendBinary appends a compact, self-delimiting binary rendering of v
// to dst and returns the extended slice. It is the model checker's
// value codec: no intermediate strings, no fmt, one append stream.
//
// For two values of one specification type (hence one storage slot),
// the appended bytes are equal exactly when the values are Equal: every
// array element is encoded, however long the array. The rendering
// leaves out what the type fixes, each array's Lo and each record's
// type, so a decoder restores those from the slot's declared type.
//
// Each encoding starts with a kind tag, so values of different kinds
// landing in one slot (e.g. an integer overwritten by a vector) never
// alias, and fixed-width headers make the stream uniquely decodable —
// concatenations are equal iff they are equal componentwise.
func AppendBinary(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case IntVal:
		return appendU64(append(dst, 'i'), uint64(v.V))
	case BoolVal:
		if v.V {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case VecVal:
		dst = appendU32(append(dst, 'v'), uint32(v.V.Width()))
		return v.V.AppendBytes(dst)
	case ArrayVal:
		dst = appendU32(append(dst, 'a'), uint32(len(v.Elems)))
		for _, e := range v.Elems {
			dst = AppendBinary(dst, e)
		}
		return dst
	case RecordVal:
		dst = appendU32(append(dst, 'r'), uint32(len(v.Fields)))
		for _, f := range v.Fields {
			dst = AppendBinary(dst, f)
		}
		return dst
	}
	panic("sim: AppendBinary on unknown value kind")
}

// DecodeBinary decodes one value from a stream produced by
// AppendBinary and returns it with the unconsumed remainder. Every
// malformed input returns an error — the stream comes off disk in the
// model checker's spill store, where a torn write must be detected,
// never misread.
func DecodeBinary(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("sim: decode: empty value stream")
	}
	switch tag := b[0]; tag {
	case 'i':
		if len(b) < 9 {
			return nil, nil, fmt.Errorf("sim: decode: truncated int")
		}
		return IntVal{V: int64(leU64(b[1:]))}, b[9:], nil
	case 'b':
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("sim: decode: truncated bool")
		}
		return BoolVal{V: b[1] != 0}, b[2:], nil
	case 'v':
		if len(b) < 5 {
			return nil, nil, fmt.Errorf("sim: decode: truncated vector header")
		}
		w := int(leU32(b[1:]))
		nb := (w + 7) / 8
		if len(b) < 5+nb {
			return nil, nil, fmt.Errorf("sim: decode: truncated width-%d vector", w)
		}
		vec, err := bits.FromBytes(b[5:5+nb], w)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: decode: %w", err)
		}
		return VecVal{V: vec}, b[5+nb:], nil
	case 'a', 'r':
		if len(b) < 5 {
			return nil, nil, fmt.Errorf("sim: decode: truncated container header")
		}
		n := int(leU32(b[1:]))
		if n > maxDecodeElems {
			return nil, nil, fmt.Errorf("sim: decode: container arity %d exceeds sanity bound", n)
		}
		rest := b[5:]
		elems := make([]Value, n)
		var err error
		for i := range elems {
			if elems[i], rest, err = DecodeBinary(rest); err != nil {
				return nil, nil, err
			}
		}
		if tag == 'a' {
			return ArrayVal{Elems: elems}, rest, nil
		}
		return RecordVal{Fields: elems}, rest, nil
	default:
		return nil, nil, fmt.Errorf("sim: decode: unknown value tag %q", tag)
	}
}

// maxDecodeElems bounds container arities the decoder will allocate
// for; a corrupt length field must fail cleanly, not OOM.
const maxDecodeElems = 1 << 20

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
