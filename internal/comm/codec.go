package comm

// This file is the wire form of collective values. A wire transport moves
// bytes, not Go values: each generic collective knows its element type T
// and, on a wire world, attaches a codec for T to the StepState. A deposit
// or a scratch aggregate is a slice of T nested one to three deep ([]T,
// [][]T, [][][]T); each level is a little-endian uint32 count followed by
// its items, and every element has one fixed size:
//
//	int64, float64  8 bytes, little-endian (a float64 as its IEEE-754 bits)
//	an Elem         the bytes its AppendElem writes (sfc.Key: 13)
//
// Decoding checks every count against the bytes left before it allocates,
// so a forged count cannot make it allocate more than a small multiple of
// its input, and it rejects trailing bytes. In-process worlds build no
// codec and accept any T.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Elem is implemented by a collective element type, other than int64 and
// float64, that crosses a wire transport: an encoding of one fixed size,
// the same for every value. AppendElem takes a value receiver and ReadElem
// a pointer receiver, so *T implements Elem.
type Elem interface {
	// AppendElem appends the element's encoding to dst.
	AppendElem(dst []byte) []byte
	// ReadElem sets the element from the front of src, which holds at
	// least the bytes AppendElem writes, and returns the rest of src.
	ReadElem(src []byte) []byte
}

// errValueShort is a value whose declared counts overrun its bytes.
var errValueShort = errors.New("comm: wire value truncated")

// valueCodec is the wire form a collective attaches to its StepState: the
// deposit and the scratch aggregate, each written and read whole.
type valueCodec interface {
	appendValue(dst []byte, v any, scratch bool) []byte
	decodeValue(src []byte, scratch bool) (any, error)
}

// codec is valueCodec for one element type T: put and get move a run of
// elements of size bytes each, and deposit and scratch are the nesting
// depths of the two values (1 is []T, 2 [][]T, 3 [][][]T).
type codec[T any] struct {
	size             int
	put              func(dst []byte, vals []T) []byte
	get              func(src []byte, vals []T)
	deposit, scratch int
}

// wireCodec is the codec a collective over T attaches on a wire world,
// whose deposit and scratch aggregate are nested deposit and scratch deep;
// on an in-process world it is nil. A T with no wire form panics with a
// *UsageError, on every rank alike, before the collective starts.
func wireCodec[T any](c *Comm, op string, deposit, scratch int) valueCodec {
	if !c.w.transport.Wire() {
		return nil
	}
	return newCodec[T](op, deposit, scratch)
}

// newCodec builds wireCodec's codec for T, or panics with its *UsageError.
func newCodec[T any](op string, deposit, scratch int) *codec[T] {
	k := &codec[T]{deposit: deposit, scratch: scratch}
	switch any((*T)(nil)).(type) {
	case *int64:
		k.size = 8
		k.put = any(appendInt64s).(func([]byte, []T) []byte)
		k.get = any(readInt64s).(func([]byte, []T))
	case *float64:
		k.size = 8
		k.put = any(appendFloat64s).(func([]byte, []T) []byte)
		k.get = any(readFloat64s).(func([]byte, []T))
	case Elem:
		var zero T
		k.size = len(any(&zero).(Elem).AppendElem(nil))
		k.put, k.get = appendElems[T], readElems[T]
	}
	if k.size == 0 {
		panic(&UsageError{Op: op, Msg: fmt.Sprintf(
			"%T has no wire form: a wire world moves int64, float64 and comm.Elem types of non-zero size", *new(T))})
	}
	return k
}

func appendInt64s(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func readInt64s(src []byte, vals []int64) {
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func appendFloat64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func readFloat64s(src []byte, vals []float64) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func appendElems[T any](dst []byte, vals []T) []byte {
	for i := range vals {
		dst = any(&vals[i]).(Elem).AppendElem(dst)
	}
	return dst
}

func readElems[T any](src []byte, vals []T) {
	for i := range vals {
		src = any(&vals[i]).(Elem).ReadElem(src)
	}
}

func (k *codec[T]) appendValue(dst []byte, v any, scratch bool) []byte {
	depth := k.deposit
	if scratch {
		depth = k.scratch
	}
	switch depth {
	case 1:
		return k.appendRun(dst, v.([]T))
	case 2:
		return k.appendRuns(dst, v.([][]T))
	}
	all := v.([][][]T)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(all)))
	for _, runs := range all {
		dst = k.appendRuns(dst, runs)
	}
	return dst
}

func (k *codec[T]) appendRun(dst []byte, vals []T) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	return k.put(slices.Grow(dst, len(vals)*k.size), vals)
}

func (k *codec[T]) appendRuns(dst []byte, runs [][]T) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(runs)))
	for _, vals := range runs {
		dst = k.appendRun(dst, vals)
	}
	return dst
}

func (k *codec[T]) decodeValue(src []byte, scratch bool) (any, error) {
	depth := k.deposit
	if scratch {
		depth = k.scratch
	}
	var v any
	var err error
	switch depth {
	case 1:
		v, src, err = k.decodeRun(src)
	case 2:
		v, src, err = k.decodeRuns(src)
	default:
		var n int
		if n, src, err = readCount(src, 4); err != nil {
			return nil, err
		}
		all := make([][][]T, n)
		for i := range all {
			if all[i], src, err = k.decodeRuns(src); err != nil {
				return nil, err
			}
		}
		v = all
	}
	if err == nil && len(src) != 0 {
		err = fmt.Errorf("comm: %d trailing bytes after a wire value", len(src))
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (k *codec[T]) decodeRun(src []byte) ([]T, []byte, error) {
	n, src, err := readCount(src, k.size)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]T, n)
	k.get(src[:n*k.size], vals)
	return vals, src[n*k.size:], nil
}

func (k *codec[T]) decodeRuns(src []byte) ([][]T, []byte, error) {
	n, src, err := readCount(src, 4)
	if err != nil {
		return nil, nil, err
	}
	runs := make([][]T, n)
	for i := range runs {
		if runs[i], src, err = k.decodeRun(src); err != nil {
			return nil, nil, err
		}
	}
	return runs, src, nil
}

// readCount reads a uint32 count off the front of src and checks that
// count items, each taking at least each bytes, fit in what is left, so
// the caller may allocate count items.
func readCount(src []byte, each int) (int, []byte, error) {
	if len(src) < 4 {
		return 0, nil, errValueShort
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n*each > len(src) {
		return 0, nil, fmt.Errorf("%w: %d items of %d bytes in %d", errValueShort, n, each, len(src))
	}
	return n, src, nil
}
