package main

// Output checks. Every op of every workload is checked after its timed
// window closes; an op that fails its check is a failed op, exactly like
// one that returned an error.

import (
	"fmt"
	"slices"

	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/service"
	"optipart/internal/sfc"
)

// multiset identifies a bag of keys independently of their order.
type multiset struct {
	n   int
	xor uint64
}

func (m *multiset) add(keys []sfc.Key) {
	m.n += len(keys)
	for _, k := range keys {
		m.xor ^= mix64(uint64(k.X)|uint64(k.Y)<<32) ^ mix64(uint64(k.Z)|uint64(k.Level)<<32|1<<63)
	}
}

func multisetOf(parts [][]sfc.Key) multiset {
	var m multiset
	for _, p := range parts {
		m.add(p)
	}
	return m
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// checkSplitters requires strictly increasing, finite separators.
func checkSplitters(sp *partition.Splitters) error {
	for i, sep := range sp.Seps {
		if partition.IsInf(sep) {
			return fmt.Errorf("separator %d is infinite: a rank owns nothing", i)
		}
		if i > 0 && sp.Curve.Compare(sp.Seps[i-1], sep) >= 0 {
			return fmt.Errorf("separators %d and %d are not strictly increasing", i-1, i)
		}
	}
	return nil
}

// checkPartition verifies one collective partition with exchange, given
// every rank's result: identical strictly monotone splitters, each rank's
// elements sorted and inside its own range, the multiset of keys conserved,
// and the quality's element count equal to the input's.
func checkPartition(res []*partition.Result, want multiset) error {
	sp := res[0].Splitters
	if err := checkSplitters(sp); err != nil {
		return err
	}
	var got multiset
	for r, rr := range res {
		if !slices.Equal(rr.Splitters.Seps, sp.Seps) {
			return fmt.Errorf("rank %d holds different splitters than rank 0", r)
		}
		if rr.Quality.N != int64(want.n) {
			return fmt.Errorf("rank %d: Quality.N = %d, input has %d keys", r, rr.Quality.N, want.n)
		}
		if !psort.IsSorted(sp.Curve, rr.Local) {
			return fmt.Errorf("rank %d: elements after the exchange are not in curve order", r)
		}
		if n := len(rr.Local); n > 0 {
			// Sorted, so the two ends bound every element's owner.
			if sp.Owner(rr.Local[0]) != r || sp.Owner(rr.Local[n-1]) != r {
				return fmt.Errorf("rank %d holds elements outside its splitter range", r)
			}
		}
		got.add(rr.Local)
	}
	if got != want {
		return fmt.Errorf("exchange did not conserve the keys: got %d keys hash %x, want %d keys hash %x",
			got.n, got.xor, want.n, want.xor)
	}
	return nil
}

// checkResponse verifies a service response against the canonical size of
// its request.
func checkResponse(resp *service.Response, wantKeys int) error {
	if err := checkSplitters(resp.Splitters); err != nil {
		return err
	}
	sum := 0
	for _, c := range resp.Counts {
		sum += c
	}
	if resp.NumKeys != wantKeys || sum != wantKeys || resp.Quality.N != int64(wantKeys) {
		return fmt.Errorf("response covers NumKeys=%d sum(Counts)=%d Quality.N=%d, canonical octree has %d keys",
			resp.NumKeys, sum, resp.Quality.N, wantKeys)
	}
	return nil
}

// checkStep verifies one repartitioning step. prior is the placement in
// force before the step; when non-nil the engine's incrementally tracked
// MovedBytes must equal a from-scratch recount of the elements whose owner
// differs between prior and the adopted placement.
func checkStep(e *partition.Repartitioner, res partition.StepResult, prior *partition.Splitters, payloadBytes int) error {
	if res.Quality.N != int64(e.Len()) {
		return fmt.Errorf("Quality.N = %d, mesh has %d leaves", res.Quality.N, e.Len())
	}
	if prior == nil {
		return nil
	}
	now := e.Splitters()
	if err := checkSplitters(now); err != nil {
		return err
	}
	var moved int64
	for _, k := range e.Keys() {
		if prior.Owner(k) != now.Owner(k) {
			moved++
		}
	}
	if want := moved * int64(payloadBytes); res.MovedBytes != want {
		return fmt.Errorf("MovedBytes = %d, an owner recount gives %d", res.MovedBytes, want)
	}
	return nil
}
