package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"optipart/internal/comm"
)

func mustEncode(t testing.TB, f *Frame) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
}

// readOne reads exactly one frame from buf with ReadFrame, the one frame
// decoder; bytes it leaves unread are comm.ErrTrailing.
func readOne(buf []byte) (*Frame, error) {
	r := bytes.NewReader(buf)
	f, err := ReadFrame(r)
	if err == nil && r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after a frame", comm.ErrTrailing, r.Len())
	}
	return f, err
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []*Frame{
		{Type: fHello, Src: 3, Seq: 0, Payload: []byte("hi")},
		{Type: fDeposit, Src: 1, Seq: 42, Op: "allreduce", Payload: bytes.Repeat([]byte{0xab}, 4096)},
		{Type: fResult, Src: 0, Seq: 42, Op: "alltoallv"},
		{Type: fPing, Src: 0},
		{Type: fAbort, Src: -1, Payload: []byte{0}},
	}
	for _, want := range cases {
		got, err := readOne(mustEncode(t, want))
		if err != nil {
			t.Fatalf("ReadFrame(%q frame): %v", want.Op, err)
		}
		if got.Type != want.Type || got.Src != want.Src || got.Seq != want.Seq || got.Op != want.Op {
			t.Errorf("header round trip: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("payload round trip mismatch for %q", want.Op)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid := mustEncode(t, &Frame{Type: fDeposit, Src: 2, Seq: 7, Op: "scan", Payload: []byte("payload")})

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := readOne(valid[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			if f, err := readOne(mut); err == nil {
				// A flip must never produce a silently different frame.
				orig, _ := readOne(valid)
				if f.Type != orig.Type || f.Src != orig.Src || f.Seq != orig.Seq ||
					f.Op != orig.Op || !bytes.Equal(f.Payload, orig.Payload) {
					t.Fatalf("bit flip at %d decoded to a different frame", i)
				}
			}
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[0] = 'X'
		if _, err := readOne(mut); !errors.Is(err, comm.ErrMagic) {
			t.Fatalf("got %v, want comm.ErrMagic", err)
		}
	})
	t.Run("badversion", func(t *testing.T) {
		// A frame of the gob-bodied version 1 is refused from its header.
		mut := append([]byte(nil), valid...)
		mut[4] = 1
		if _, err := readOne(mut); !errors.Is(err, comm.ErrVersion) {
			t.Fatalf("got %v, want comm.ErrVersion", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, err := readOne(append(append([]byte(nil), valid...), 0)); !errors.Is(err, comm.ErrTrailing) {
			t.Fatalf("got %v, want comm.ErrTrailing", err)
		}
	})
	t.Run("zerolength", func(t *testing.T) {
		// An empty stream is a closed connection, not a short frame.
		if _, err := readOne(nil); !errors.Is(err, io.EOF) {
			t.Fatalf("got %v, want io.EOF", err)
		}
	})
	t.Run("oversize-encode", func(t *testing.T) {
		if _, err := AppendFrame(nil, &Frame{Type: fPing, Op: strings.Repeat("x", MaxFrameOp+1)}); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("got %v, want ErrFrameOversize", err)
		}
	})
	t.Run("oversize-decode", func(t *testing.T) {
		// A forged header declaring a payload beyond the cap must be
		// rejected from the header alone, before any allocation.
		mut := append([]byte(nil), valid...)
		mut[20], mut[21], mut[22], mut[23] = 0xff, 0xff, 0xff, 0xff
		if _, err := readOne(mut); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("got %v, want ErrFrameOversize", err)
		}
	})
}

// TestReadFrameGrowsWithArrivingBytes: a bare header declaring the largest
// payload, then end of stream, is a truncated frame, and ReadFrame must not
// reserve the declared 64 MiB for bytes that never came. Root.admit reads
// every unchecked hello this way. The process-wide byte count is taken as
// the least of five reads, so goroutines other tests left running do not
// count against it.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	hdr := mustEncode(t, &Frame{Type: fHello, Src: 1})[:headerLen]
	binary.BigEndian.PutUint32(hdr[20:24], MaxFramePayload)
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 2<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a header alone, want under 2 MiB", least)
	}
}

// FuzzDecodeFrame asserts the frame decoder's safety contract on
// arbitrary input, read through ReadFrame as a connection would feed it: it
// may reject, but it must never panic, never over-allocate (the length caps
// bound every allocation), and any frame it accepts must re-encode to the
// bytes it read, with bytes it left unread rejected as trailing.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("OPTP"))
	f.Add(mustEncode(f, &Frame{Type: fPing, Src: 0}))
	f.Add(mustEncode(f, &Frame{Type: fDeposit, Src: 1, Seq: 9, Op: "allgather", Payload: []byte("data")}))
	f.Add(mustEncode(f, &Frame{Type: fAbort, Src: -1, Payload: bytes.Repeat([]byte{7}, 300)})[:40])
	corrupt := mustEncode(f, &Frame{Type: fResult, Src: 0, Seq: 3, Op: "bcast", Payload: []byte("xyz")})
	corrupt[len(corrupt)-1] ^= 1
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readOne(data)
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, frame)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", data, re)
		}
	})
}
