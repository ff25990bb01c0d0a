package sim

// AppendBinary appends a compact, self-delimiting binary rendering of v
// to dst and returns the extended slice. It is the model checker's one
// value encoding, which it interns and hashes values by: no
// intermediate strings, no fmt, one append stream.
//
// For two values of one specification type (hence one storage slot),
// the appended bytes are equal exactly when the values are Equal: every
// array element is encoded, however long the array. The rendering
// leaves out what the type fixes, each array's Lo and each record's
// type.
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

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
