package net

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestFailureRoundTrip: every failure kind an fAbort carries is rebuilt on
// the receiving process as the same structured error, through a real frame.
func TestFailureRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		in, want error
	}{
		{name: "rank", in: &comm.RankFailure{Rank: 2, Op: "allgather", Phase: "sort", Collective: 7, Err: errors.New("boom")}},
		{name: "rank-usage", in: &comm.RankFailure{Rank: 0, Op: "allreduce", Phase: "main", Collective: -1,
			Err: &comm.UsageError{Op: "allreduce", Msg: "length mismatch across ranks"}}},
		{name: "rank-nested", in: &comm.RankFailure{Rank: 1, Op: "barrier", Phase: "main", Collective: 3,
			Err: &comm.RankFailure{Rank: 2, Op: "alltoallv", Phase: "x", Collective: 1, Err: errors.New("inner")}},
			want: &comm.RankFailure{Rank: 1, Op: "barrier", Phase: "main", Collective: 3,
				Err: errors.New(`comm: rank 2 failed in phase "x" at collective 1 (alltoallv): inner`)}},
		{name: "link", in: &comm.LinkFailure{Src: 1, Dst: 0, Op: "allreduce", Seq: noSeq, Attempts: 5, Cap: 5}},
		{name: "mismatch", in: &comm.MismatchError{Step: 4, Calls: []comm.SigCall{
			{Rank: 0, Op: "allreduce", ElemBytes: 8}, {Rank: 1, Op: "barrier"}, {Rank: 2, Op: "allreduce", ElemBytes: 16}}}},
		{name: "abandoned", in: &comm.AbandonedError{Waiter: 0, Op: "alltoallv", Departed: []int{1, 3}}},
		{name: "shutdown", in: &ShutdownError{Reason: "SIGTERM"}},
		{name: "usage", in: &comm.UsageError{Op: "run", Msg: "p=0"}},
		{name: "generic", in: errors.New("net: something else")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			if want == nil {
				want = tc.in
			}
			buf, err := abortFrame(3, tc.in)
			if err != nil {
				t.Fatalf("abortFrame: %v", err)
			}
			f, err := DecodeFrame(buf)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if got := decodeAbort(f); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %#v, want %#v", got, want)
			}
		})
	}
}

// TestBodyRoundTrip: the fixed-layout bodies decode to what was encoded.
func TestBodyRoundTrip(t *testing.T) {
	h := helloBody{Rank: 3, P: 4, Resume: noSeq, Inc: 2}
	if got, err := decodeHello(h.append(nil)); err != nil || got != h {
		t.Errorf("hello: got %+v, %v; want %+v", got, err, h)
	}
	w := welcomeBody{P: 4, Tc: 2e-9, Ts: math.Copysign(0, -1), Tw: math.Inf(1)}
	if got, err := decodeWelcome(w.append(nil)); err != nil || got != w || math.Signbit(got.Ts) != math.Signbit(w.Ts) {
		t.Errorf("welcome: got %+v, %v; want %+v", got, err, w)
	}
	d := depositBody{ElemBytes: 16, Clock: 1.25, Phase: "splitters", Value: []byte{1, 2, 3}}
	if got, err := decodeDeposit(d.append(nil)); err != nil || !reflect.DeepEqual(got, d) {
		t.Errorf("deposit: got %+v, %v; want %+v", got, err, d)
	}
	r := resultBody{End: 9.5, Scratch: []byte{4, 5}}
	if got, err := decodeResult(r.append(nil)); err != nil || !reflect.DeepEqual(got, r) {
		t.Errorf("result: got %+v, %v; want %+v", got, err, r)
	}
}

// capturedStep is one collective's StepState with the wire forms of its
// deposit and scratch aggregate.
type capturedStep struct {
	st               *comm.StepState
	deposit, scratch []byte
}

// captureTransport is a one-rank comm.Transport that reports a wire, so
// every collective attaches its codec, and keeps each step it carries.
type captureTransport struct{ steps []capturedStep }

func (t *captureTransport) Wire() bool         { return true }
func (t *captureTransport) Bind(func(error))   {}
func (t *captureTransport) Depart(int)         {}
func (t *captureTransport) Cancel(error)       {}
func (t *captureTransport) Generation() uint64 { return uint64(len(t.steps)) }

func (t *captureTransport) Step(st *comm.StepState) any {
	st.SetLocalDeposit()
	st.FinishStep(st.ComputeCost())
	t.steps = append(t.steps, capturedStep{st, st.AppendDeposit(nil), st.AppendScratch(nil)})
	return st.Consume()
}

// wireSteps runs one collective over each element type that crosses a wire
// in production — int64, float64, sfc.Key, and partition's gathered first
// keys — plus a barrier, on a one-rank wire world, and returns the steps.
func wireSteps(tb testing.TB) []capturedStep {
	tb.Helper()
	keys := []sfc.Key{{}, {X: 1<<30 - 1, Y: 1<<30 - 1, Z: 1<<30 - 1, Level: sfc.MaxLevel}}
	tr := &captureTransport{}
	_, err := comm.RunRank(0, 1, comm.CostModel{}, tr, comm.CheckedOptions{}, func(c *comm.Comm) error {
		comm.Allreduce(c, []int64{math.MinInt64, 0, math.MaxInt64}, 8, comm.SumI64)
		comm.Allgather(c, []float64{math.Copysign(0, -1), math.NaN()}, 8)
		comm.Alltoallv(c, [][]sfc.Key{keys}, psort.KeyBytes, comm.AlltoallvOptions{})
		partition.SplittersFromDistribution(c, sfc.NewCurve(sfc.Hilbert, 3), keys)
		c.Barrier()
		return nil
	})
	if err != nil {
		tb.Fatalf("capture world: %v", err)
	}
	return tr.steps
}

// bodyDecoder is one decoder of a byte string a peer can put in a frame
// body, with a seed body it accepts. reencode, where set, is the canonical
// encoder an accepted body must reproduce the input with.
type bodyDecoder struct {
	name     string
	seed     []byte
	decode   func([]byte) error
	reencode func() []byte
}

// bodyDecoders are the five net bodies' decoders, then each captured
// collective's deposit and scratch decoders.
func bodyDecoders(tb testing.TB) []bodyDecoder {
	var (
		hello   helloBody
		welcome welcomeBody
		deposit depositBody
		result  resultBody
		failure error
	)
	rf := &comm.RankFailure{Rank: 1, Op: "allreduce", Phase: "main", Collective: 2,
		Err: &comm.UsageError{Op: "allreduce", Msg: "x"}}
	decs := []bodyDecoder{
		{"hello", helloBody{Rank: 1, P: 3, Resume: noSeq, Inc: 1}.append(nil),
			func(b []byte) (err error) { hello, err = decodeHello(b); return err },
			func() []byte { return hello.append(nil) }},
		{"welcome", welcomeBody{P: 3, Tc: 1e-9, Ts: 5e-6, Tw: 2e-9}.append(nil),
			func(b []byte) (err error) { welcome, err = decodeWelcome(b); return err },
			func() []byte { return welcome.append(nil) }},
		{"deposit", depositBody{ElemBytes: 8, Clock: 0.5, Phase: "main", Value: []byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}}.append(nil),
			func(b []byte) (err error) { deposit, err = decodeDeposit(b); return err },
			func() []byte { return deposit.append(nil) }},
		{"result", resultBody{End: 1.5, Scratch: []byte{0, 0, 0, 0}}.append(nil),
			func(b []byte) (err error) { result, err = decodeResult(b); return err },
			func() []byte { return result.append(nil) }},
		{"abort", appendFailure(nil, rf, false),
			func(b []byte) (err error) { failure, err = decodeFailure(b); return err },
			func() []byte { return appendFailure(nil, failure, false) }},
	}
	for _, s := range wireSteps(tb) {
		st := s.st
		decs = append(decs,
			bodyDecoder{name: st.Op() + "/deposit", seed: s.deposit,
				decode: func(b []byte) error { return st.SetRemoteBytes(0, 0, "main", b) }},
			bodyDecoder{name: st.Op() + "/scratch", seed: s.scratch, decode: st.SetScratchBytes})
	}
	return decs
}

// FuzzDecodeBodies asserts the body decoders' safety contract on arbitrary
// input: each returns a value or an error and never panics, allocates no
// more than a small multiple of its input (every declared count is checked
// against the bytes left first), and a net body it accepts re-encodes to
// the identical bytes. which picks the decoder.
func FuzzDecodeBodies(f *testing.F) {
	decs := bodyDecoders(f)
	// A uint32 count of 2^20 items, little-endian.
	forged := []byte{0, 0, 0x10, 0}
	for i, d := range decs {
		// The seed and truncations of it. A collective value starts with a
		// count, so its seed also goes in behind a forged one.
		for _, n := range []int{len(d.seed), len(d.seed) - 1, len(d.seed) / 2, 1, 0} {
			if n >= 0 && n <= len(d.seed) {
				f.Add(uint8(i), d.seed[:n])
			}
		}
		if d.reencode == nil {
			f.Add(uint8(i), append(forged, d.seed...))
		}
	}
	const abort = 4
	f.Add(uint8(abort), appendFailure(nil, &comm.AbandonedError{Op: "barrier", Departed: []int{1, 2}}, false))
	f.Add(uint8(abort), append(appendString(appendInt([]byte{failAbandoned}, 0), "barrier"), forged...))
	f.Add(uint8(abort), appendFailure(nil, &comm.MismatchError{Step: 1, Calls: []comm.SigCall{{Rank: 0, Op: "barrier"}}}, false))
	f.Add(uint8(abort), append(appendInt([]byte{failMismatch}, 1), forged...))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dec := decs[int(which)%len(decs)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dec.decode(data)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+64<<10); grew > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d, over %d", dec.name, len(data), grew, bound)
		}
		if err != nil || dec.reencode == nil {
			return
		}
		if re := dec.reencode(); !bytes.Equal(re, data) {
			t.Fatalf("%s: accepted body re-encodes differently:\n in %x\nout %x", dec.name, data, re)
		}
	})
}
