package comm

// This file is the wire form of collective values. A wire transport moves
// bytes, not Go values: each generic collective knows its element type T
// and, on a wire world, attaches a codec for T to the StepState. A value is
// one run ([]T) or, for the personal Alltoallv, one run per rank ([][]T);
// a run is a little-endian uint32 count followed by its elements, a list
// of runs a uint32 count followed by its runs, and every element has one
// fixed size:
//
//	int64, float64  8 bytes, little-endian (a float64 as its IEEE-754 bits)
//	an Elem         the bytes its AppendElem writes (sfc.Key: 13)
//
// Decoding reads through the byte layer's Reader (bytes.go), which checks
// every count against the bytes left before it allocates, so a forged count
// cannot make it allocate more than a small multiple of its input, and it
// rejects trailing bytes. A personal value's runs are split, not decoded:
// the computing rank forwards each run as the bytes it arrived in, and
// only the run's receiver decodes it. In-process worlds build no codec and
// accept any T.

import (
	"encoding/binary"
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

// valueCodec is the wire form a collective attaches to its StepState. A
// shared collective's deposit and result are one run ([]T), and every rank
// gets the same result. A personal one's (Alltoallv's) are one run per
// rank ([][]T): run d of a deposit is addressed to rank d, and each rank's
// result is its own column, the runs every source addressed to it.
type valueCodec interface {
	// personal reports whether the value is one run per rank.
	personal() bool
	// appendValue appends v's wire form to dst. A personal value's run
	// addressed to skip is written empty: the sender keeps it.
	appendValue(dst []byte, v any, skip int) []byte
	// decodeValue reads a whole wire value: a shared value's []T, or a
	// personal value's p runs, still in wire form ([]rawRun).
	decodeValue(src []byte, p int) (any, error)
	// appendColumn appends rank's column of a personal step: rank 0's run
	// encoded from its deposit in slots, every other source's run spliced
	// in as the bytes it arrived in, and rank's own run empty.
	appendColumn(dst []byte, slots []any, rank int) []byte
}

// rawRun is one run of a personal value still in wire form: its element
// count and the encoded elements, which alias the bytes it was read from.
type rawRun struct {
	n int
	b []byte
}

// codec is valueCodec for one element type T: put and get move a run of
// elements of size bytes each.
type codec[T any] struct {
	size int
	put  func(dst []byte, vals []T) []byte
	get  func(src []byte, vals []T)
	runs bool // personal: one run per rank
}

// wireCodec is the codec a collective over T attaches on a wire world, a
// personal one's with runs; on an in-process world it is nil. A T with no
// wire form panics with a *UsageError, on every rank alike, before the
// collective starts.
func wireCodec[T any](c *Comm, op string, runs bool) valueCodec {
	if !c.w.transport.Wire() {
		return nil
	}
	return newCodec[T](op, runs)
}

// newCodec builds wireCodec's codec for T, or panics with its *UsageError.
func newCodec[T any](op string, runs bool) *codec[T] {
	k := &codec[T]{runs: runs}
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

func (k *codec[T]) personal() bool { return k.runs }

func (k *codec[T]) appendValue(dst []byte, v any, skip int) []byte {
	if !k.runs {
		return k.appendRun(dst, v.([]T))
	}
	runs := v.([][]T)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(runs)))
	for d, vals := range runs {
		if d == skip {
			vals = nil
		}
		dst = k.appendRun(dst, vals)
	}
	return dst
}

func (k *codec[T]) appendRun(dst []byte, vals []T) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	return k.put(slices.Grow(dst, len(vals)*k.size), vals)
}

func (k *codec[T]) decodeValue(src []byte, p int) (any, error) {
	d := NewReader(src)
	var v any
	if k.runs {
		v = k.splitRuns(&d, p)
	} else {
		v = k.decodeRun(&d)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return v, nil
}

func (k *codec[T]) decodeRun(d *Reader) []T {
	vals := make([]T, d.Count(k.size))
	k.get(d.Take(len(vals)*k.size), vals)
	return vals
}

// splitRuns reads a personal value's p runs without decoding them; a run
// count other than p, or a run longer than the bytes left, fails d.
func (k *codec[T]) splitRuns(d *Reader, p int) []rawRun {
	if n := d.Count(4); n != p {
		d.Fail(fmt.Errorf("comm: %d runs for %d ranks", n, p))
		return nil
	}
	runs := make([]rawRun, p)
	for i := range runs {
		n := d.Count(k.size)
		runs[i] = rawRun{n: n, b: d.Take(n * k.size)}
	}
	return runs
}

func (k *codec[T]) appendColumn(dst []byte, slots []any, rank int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(slots)))
	for src := range slots {
		if src == rank {
			dst = binary.LittleEndian.AppendUint32(dst, 0) // rank keeps its own run
			continue
		}
		if raw, ok := slots[src].([]rawRun); ok {
			run := raw[rank]
			dst = append(binary.LittleEndian.AppendUint32(dst, uint32(run.n)), run.b...)
			continue
		}
		dst = k.appendRun(dst, slots[src].([][]T)[rank])
	}
	return dst
}
