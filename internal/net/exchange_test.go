package net

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestExchangeOracle: after Partition's exchange, every rank's Result.Local
// is TreeSort of the keys it was sent, which are every key of every rank's
// input that the adopted Splitters assign to it. The inputs hold an empty
// rank and keys duplicated within and across ranks. It covers p in {1, 2,
// 3, 16}, both curves, 2-D and 3-D, and all three modes, each in-process
// and over a unix-socket world, where the keys cross the wire with their
// ranks.
func TestExchangeOracle(t *testing.T) {
	model := machine.Clemson32().CostModel()
	modes := []partition.Mode{partition.EqualWork, partition.FlexibleTolerance, partition.ModelDriven}
	for _, p := range []int{1, 2, 3, 16} {
		for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
			for _, dim := range []int{2, 3} {
				for _, mode := range modes {
					curve := sfc.NewCurve(kind, dim)
					inputs := exchangeInputs(int64(100*p+10*dim+int(mode)), p, dim)
					opts := partition.Options{Curve: curve, Mode: mode, Tol: 0.2, Machine: machine.Clemson32()}
					program := func(out *sync.Map) func(c *comm.Comm) error {
						return func(c *comm.Comm) error {
							res := partition.Partition(c, slices.Clone(inputs[c.Rank()]), opts)
							out.Store(c.Rank(), rankResult{seps: res.Splitters.Seps, local: res.Local})
							return nil
						}
					}
					name := fmt.Sprintf("p=%d/%v/%dD/%v", p, kind, dim, mode)
					t.Run(name+"/inproc", func(t *testing.T) {
						var out sync.Map
						if _, err := comm.RunChecked(p, model, program(&out)); err != nil {
							t.Fatalf("run: %v", err)
						}
						checkExchange(t, curve, inputs, &out)
					})
					t.Run(name+"/wire", func(t *testing.T) {
						var out sync.Map
						sock := filepath.Join(t.TempDir(), "x.sock")
						for rank, err := range runWireWorld(t, p, sock, model, fastOpts(), program(&out)) {
							if err != nil {
								t.Fatalf("wire rank %d: %v", rank, err)
							}
						}
						checkExchange(t, curve, inputs, &out)
					})
				}
			}
		}
	}
}

// exchangeInputs draws p ranks' keys: rank 1 holds none, every other rank
// repeats a quarter of its own keys, and the last rank repeats rank 0's
// first keys.
func exchangeInputs(seed int64, p, dim int) [][]sfc.Key {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]sfc.Key, p)
	for r := range inputs {
		if r == 1 {
			continue
		}
		keys := octree.RandomKeys(rng, 200+rng.Intn(200), dim, octree.Normal, 1, 12)
		inputs[r] = append(keys, keys[:len(keys)/4]...)
	}
	if p > 2 {
		inputs[p-1] = append(inputs[p-1], inputs[0][:20]...)
	}
	return inputs
}

// checkExchange fails t unless every rank of out adopted the same
// separators and holds exactly TreeSort of the input keys they assign to it.
func checkExchange(t *testing.T, curve *sfc.Curve, inputs [][]sfc.Key, out *sync.Map) {
	t.Helper()
	p := len(inputs)
	first, ok := out.Load(0)
	if !ok {
		t.Fatal("rank 0 stored no result")
	}
	sp := &partition.Splitters{Curve: curve, Seps: first.(rankResult).seps}
	sent := make([][]sfc.Key, p)
	for _, keys := range inputs {
		for _, k := range keys {
			o := sp.Owner(k)
			sent[o] = append(sent[o], k)
		}
	}
	for rank := 0; rank < p; rank++ {
		v, ok := out.Load(rank)
		if !ok {
			t.Fatalf("rank %d stored no result", rank)
		}
		res := v.(rankResult)
		if !slices.Equal(res.seps, sp.Seps) {
			t.Fatalf("rank %d adopted separators %v, rank 0 %v", rank, res.seps, sp.Seps)
		}
		want := slices.Clone(sent[rank])
		psort.TreeSort(curve, want)
		if !slices.Equal(res.local, want) {
			t.Fatalf("rank %d holds %d keys after the exchange, want TreeSort of the %d it was sent", rank, len(res.local), len(want))
		}
	}
}
