package comm

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"optipart/internal/sfc"
)

// roundTrip encodes v as a value of the shared codec k, decodes it back,
// and checks that the decoded value encodes to the same bytes. It returns
// the decoded value.
func roundTrip[T any](t *testing.T, k *codec[T], v []T) []T {
	t.Helper()
	enc := k.appendValue(nil, v, -1)
	got, err := k.decodeValue(enc, 1)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if re := k.appendValue(nil, got, -1); !bytes.Equal(re, enc) {
		t.Fatalf("%T re-encodes differently:\n in %x\nout %x", v, enc, re)
	}
	return got.([]T)
}

func TestCodecRoundTrip(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		in := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
		if got := roundTrip(t, newCodec[int64]("allreduce", false), in); !slices.Equal(got, in) {
			t.Fatalf("got %v, want %v", got, in)
		}
	})
	t.Run("float64", func(t *testing.T) {
		// NaN payload bits and the sign of zero survive: the wire carries
		// the IEEE-754 bits, not the value.
		in := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8_0000_0000_0001),
			math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
		got := roundTrip(t, newCodec[float64]("allgather", false), in)
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
		// A personal value: rank 1's deposit at p = 3 leaves its own run
		// empty, the computing rank splits it into runs without decoding
		// them and splices them into each receiver's column, and the
		// receiver decodes its run.
		keys := []sfc.Key{{}, {X: math.MaxUint32, Y: math.MaxUint32, Z: math.MaxUint32, Level: sfc.MaxLevel}}
		k := newCodec[sfc.Key]("alltoallv", true)
		if k.size != 13 {
			t.Fatalf("sfc.Key wire size %d, want 13", k.size)
		}
		dep := k.appendValue(nil, [][]sfc.Key{keys, keys, {keys[1]}}, 1)
		v, err := k.decodeValue(dep, 3)
		if err != nil {
			t.Fatalf("split deposit: %v", err)
		}
		if raw := v.([]rawRun); raw[0].n != 2 || raw[1].n != 0 || raw[2].n != 1 {
			t.Fatalf("split runs %+v, want lengths 2, 0, 1", raw)
		}
		slots := []any{[][]sfc.Key{nil, {keys[0]}, keys}, v, []rawRun{{}, {}, {}}}
		col, err := k.decodeValue(k.appendColumn(nil, slots, 2), 3)
		if err != nil {
			t.Fatalf("column: %v", err)
		}
		runs := col.([]rawRun)
		if runs[0].n != 2 || runs[1].n != 1 || runs[2].n != 0 {
			t.Fatalf("rank 2's column %+v, want lengths 2, 1, 0", runs)
		}
		got := make([]sfc.Key, 3)
		k.get(runs[0].b, got[:2])
		k.get(runs[1].b, got[2:])
		if want := append(slices.Clone(keys), keys[1]); !slices.Equal(got, want) {
			t.Fatalf("rank 2 decoded %v, want %v", got, want)
		}
	})
}

func TestCodecRejects(t *testing.T) {
	shared := newCodec[int64]("allgather", false)
	personal := newCodec[int64]("alltoallv", true)
	for _, tc := range []struct {
		k     valueCodec
		valid []byte
	}{
		{shared, shared.appendValue(nil, []int64{1, 2, 3}, -1)},
		{personal, personal.appendValue(nil, [][]int64{{1, 2}, {3}}, -1)},
	} {
		for n := 0; n < len(tc.valid); n++ {
			if _, err := tc.k.decodeValue(tc.valid[:n], 2); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
		if _, err := tc.k.decodeValue(append(tc.valid, 0), 2); err == nil {
			t.Fatal("trailing byte decoded")
		}
		// A count the bytes cannot hold is refused before anything is
		// allocated.
		forged := []byte{0xff, 0xff, 0xff, 0x7f}
		if _, err := tc.k.decodeValue(forged, 2); !errors.Is(err, ErrShort) {
			t.Fatalf("forged count: got %v, want ErrShort", err)
		}
	}
	// A personal value holds exactly one run per rank.
	for _, runs := range [][][]int64{{{1}}, {{1}, nil, {2}}} {
		if _, err := personal.decodeValue(personal.appendValue(nil, runs, -1), 2); err == nil {
			t.Fatalf("%d runs decoded for 2 ranks", len(runs))
		}
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
	newCodec[pair]("allreduce", false)
}
