package comm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"optipart/internal/sfc"
)

// roundTrip encodes v as the deposit (scratch false) or scratch value of k,
// decodes it back, and checks that the decoded value encodes to the same
// bytes. It returns the decoded value.
func roundTrip[T any](t *testing.T, k *codec[T], v any, scratch bool) any {
	t.Helper()
	enc := k.appendValue(nil, v, scratch)
	got, err := k.decodeValue(enc, scratch)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if re := k.appendValue(nil, got, scratch); !bytes.Equal(re, enc) {
		t.Fatalf("%T re-encodes differently:\n in %x\nout %x", v, enc, re)
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		in := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
		got := roundTrip(t, newCodec[int64]("allreduce", 1, 1), in, false).([]int64)
		if len(got) != len(in) {
			t.Fatalf("got %v, want %v", got, in)
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("got %v, want %v", got, in)
			}
		}
	})
	t.Run("float64", func(t *testing.T) {
		// NaN payload bits and the sign of zero survive: the wire carries
		// the IEEE-754 bits, not the value.
		in := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8_0000_0000_0001),
			math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
		got := roundTrip(t, newCodec[float64]("allgather", 1, 1), in, false).([]float64)
		if len(got) != len(in) {
			t.Fatalf("got %v, want %v", got, in)
		}
		for i := range in {
			if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
				t.Fatalf("element %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(in[i]))
			}
		}
	})
	t.Run("sfc.Key", func(t *testing.T) {
		// The deepest shape a collective moves: Alltoallv's [][][]T scratch.
		keys := []sfc.Key{{}, {X: math.MaxUint32, Y: math.MaxUint32, Z: math.MaxUint32, Level: sfc.MaxLevel}}
		k := newCodec[sfc.Key]("alltoallv", 2, 3)
		if k.size != 13 {
			t.Fatalf("sfc.Key wire size %d, want 13", k.size)
		}
		in := [][][]sfc.Key{{keys, nil}, {{keys[1]}, keys}}
		got := roundTrip(t, k, in, true).([][][]sfc.Key)
		for i := range in {
			for j := range in[i] {
				if len(got[i][j]) != len(in[i][j]) {
					t.Fatalf("got %v, want %v", got, in)
				}
				for n := range in[i][j] {
					if got[i][j][n] != in[i][j][n] {
						t.Fatalf("got %v, want %v", got, in)
					}
				}
			}
		}
	})
}

func TestCodecRejects(t *testing.T) {
	k := newCodec[int64]("alltoallv", 2, 3)
	valid := k.appendValue(nil, [][]int64{{1, 2}, {3}}, false)
	for n := 0; n < len(valid); n++ {
		if _, err := k.decodeValue(valid[:n], false); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := k.decodeValue(append(valid, 0), false); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// A count the bytes cannot hold is refused before anything is allocated.
	forged := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := k.decodeValue(forged, true); !errors.Is(err, ErrShort) {
		t.Fatalf("forged count: got %v, want ErrShort", err)
	}
}

func TestCodecRefusesTypesWithoutWireForm(t *testing.T) {
	type pair struct{ A, B int64 }
	defer func() {
		var ue *UsageError
		if err, _ := recover().(error); !errors.As(err, &ue) || ue.Op != "allreduce" {
			t.Fatalf("recovered %v, want a *UsageError naming allreduce", err)
		}
	}()
	newCodec[pair]("allreduce", 1, 1)
}
