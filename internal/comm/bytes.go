package comm

// This file is the one byte layer of every trust boundary: collective
// values (codec.go), internal/net's frames and bodies, and internal/ckpt's
// snapshots are written with its appenders and read with its Reader, so a
// count a peer or a file declares is checked against the bytes left in one
// place. Fields are little-endian: an int is 8 bytes (int64), a float64 its
// IEEE-754 bits, a string or a list a uint32 count followed by its bytes or
// items. A versioned byte string starts with a magic and a version byte
// (CheckHeader); a sealed one ends in the big-endian CRC-32C (Castagnoli)
// of all before it, 4 bytes (Seal, Unseal), which hash/crc32 sums with the
// CPU's CRC instruction where there is one.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The byte layer's errors, wrapped with context; match with errors.Is.
var (
	ErrShort    = errors.New("comm: bytes truncated")
	ErrMagic    = errors.New("comm: bad magic")
	ErrVersion  = errors.New("comm: unsupported version")
	ErrChecksum = errors.New("comm: checksum mismatch")
	ErrTrailing = errors.New("comm: trailing bytes")
)

// SealLen is the size of Seal's trailer.
const SealLen = 4

// castagnoli is the CRC-32C table Seal and Unseal sum with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Reader reads a byte string front to back. The first read that fails
// latches its error; every later read returns a zero value.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail latches err, unless err is nil or the Reader has already failed,
// and drops the bytes left.
func (d *Reader) Fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
		d.b = nil
	}
}

// Take consumes the next n bytes, or fails the Reader.
func (d *Reader) Take(n int) []byte {
	if n > len(d.b) {
		d.Fail(ErrShort)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// U8, U64, Int and Float read one fixed-size field.
func (d *Reader) U8() byte {
	if p := d.Take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *Reader) U64() uint64 {
	if p := d.Take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *Reader) Int() int { return int(int64(d.U64())) }

func (d *Reader) Float() float64 { return math.Float64frombits(d.U64()) }

// Count reads a list or string length and checks that that many items,
// each taking at least each bytes, fit in the bytes left, so the caller
// may allocate them.
func (d *Reader) Count(each int) int {
	p := d.Take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n*each > len(d.b) {
		d.Fail(fmt.Errorf("%w: %d items of %d bytes in %d", ErrShort, n, each, len(d.b)))
		return 0
	}
	return n
}

// Str reads a string: its count, then its bytes.
func (d *Reader) Str() string { return string(d.Take(d.Count(1))) }

// Rest consumes and returns whatever is left.
func (d *Reader) Rest() []byte {
	p := d.b
	d.b = nil
	return p
}

// End is the Reader's error, with bytes left unread an ErrTrailing.
func (d *Reader) End() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d", ErrTrailing, len(d.b))
	}
	return d.err
}

// AppendInt, AppendFloat and AppendString append one field.
func AppendInt(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func AppendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// CheckHeader checks that b starts with magic and then version.
func CheckHeader(b []byte, magic string, version byte) error {
	switch {
	case len(b) <= len(magic):
		return fmt.Errorf("%w: %d header bytes", ErrShort, len(b))
	case string(b[:len(magic)]) != magic:
		return fmt.Errorf("%w: want %q", ErrMagic, magic)
	case b[len(magic)] != version:
		return fmt.Errorf("%w %d of %q", ErrVersion, b[len(magic)], magic)
	}
	return nil
}

// Seal appends the CRC-32C of dst[start:], sealing the byte string that
// starts there.
func Seal(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Unseal checks the seal of b and returns what it sums. The body is
// returned when only the sum is wrong, so a caller may report a header
// error ahead of the checksum.
func Unseal(b []byte) ([]byte, error) {
	if len(b) < SealLen {
		return nil, fmt.Errorf("%w: %d bytes, no seal", ErrShort, len(b))
	}
	body := b[:len(b)-SealLen]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(b[len(body):]); got != want {
		return body, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return body, nil
}
