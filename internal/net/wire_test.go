package net

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func mustEncode(t testing.TB, f *Frame) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
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
		buf := mustEncode(t, want)
		got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%q frame): %v", want.Op, err)
		}
		if got.Type != want.Type || got.Src != want.Src || got.Seq != want.Seq || got.Op != want.Op {
			t.Errorf("header round trip: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("payload round trip mismatch for %q", want.Op)
		}
		// The streaming reader must agree with the buffer decoder.
		rf, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if rf.Type != want.Type || !bytes.Equal(rf.Payload, want.Payload) {
			t.Errorf("ReadFrame disagrees with DecodeFrame for %q", want.Op)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid := mustEncode(t, &Frame{Type: fDeposit, Src: 2, Seq: 7, Op: "scan", Payload: []byte("payload")})

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeFrame(valid[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			if f, err := DecodeFrame(mut); err == nil {
				// A flip must never produce a silently different frame.
				orig, _ := DecodeFrame(valid)
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
		if _, err := DecodeFrame(mut); !errors.Is(err, ErrFrameMagic) {
			t.Fatalf("got %v, want ErrFrameMagic", err)
		}
	})
	t.Run("badversion", func(t *testing.T) {
		// A frame of the gob-bodied version 1 is refused from its header.
		mut := append([]byte(nil), valid...)
		mut[4] = 1
		if _, err := DecodeFrame(mut); !errors.Is(err, ErrFrameVersion) {
			t.Fatalf("got %v, want ErrFrameVersion", err)
		}
		if _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrFrameVersion) {
			t.Fatalf("ReadFrame: got %v, want ErrFrameVersion", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, err := DecodeFrame(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrFrameTrailing) {
			t.Fatalf("got %v, want ErrFrameTrailing", err)
		}
	})
	t.Run("zerolength", func(t *testing.T) {
		if _, err := DecodeFrame(nil); !errors.Is(err, ErrFrameShort) {
			t.Fatalf("got %v, want ErrFrameShort", err)
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
		if _, err := DecodeFrame(mut); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("got %v, want ErrFrameOversize", err)
		}
		if _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("ReadFrame: got %v, want ErrFrameOversize", err)
		}
	})
}

// FuzzDecodeFrame asserts the decoder's safety contract on arbitrary
// input: it may reject, but it must never panic, never over-allocate
// (the length caps bound every allocation), and anything it accepts must
// re-encode to the identical bytes. Production reads frames with ReadFrame,
// so every input goes through it too: the two decoders share one header
// parser and must agree on accept/reject (ReadFrame leaves trailing bytes
// unread, DecodeFrame rejects them) and on the frame.
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
		frame, err := DecodeFrame(data)
		streamed, rerr := ReadFrame(bytes.NewReader(data))
		if (rerr == nil) != (err == nil || errors.Is(err, ErrFrameTrailing)) {
			t.Fatalf("decoders disagree: DecodeFrame %v, ReadFrame %v", err, rerr)
		}
		if err != nil {
			return
		}
		if streamed.Type != frame.Type || streamed.Src != frame.Src || streamed.Seq != frame.Seq ||
			streamed.Op != frame.Op || !bytes.Equal(streamed.Payload, frame.Payload) {
			t.Fatalf("frames differ: DecodeFrame %+v, ReadFrame %+v", frame, streamed)
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
