package psort_test

import (
	"math/rand"
	"slices"
	"testing"

	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// sortedRuns cuts keys into n runs at random (some empty), sorts each, and
// returns them as rank-carrying records.
func sortedRuns(rng *rand.Rand, curve *sfc.Curve, keys []sfc.Key, n int) [][]psort.KeyRank {
	runs := make([][]psort.KeyRank, n)
	for _, k := range keys {
		r := rng.Intn(n)
		if n > 2 && r == n/2 {
			r = 0 // keep one run empty
		}
		runs[r] = append(runs[r], psort.KeyRank{Key: k, Rank: curve.Rank(k)})
	}
	for _, run := range runs {
		slices.SortFunc(run, func(a, b psort.KeyRank) int {
			if a.Rank.Less(b.Rank) {
				return -1
			}
			if b.Rank.Less(a.Rank) {
				return 1
			}
			return 0
		})
	}
	return runs
}

// TestMergeRunsMatchesTreeSort: merging sorted runs by their ranks equals
// TreeSort of the concatenated keys, for run counts that are and are not
// powers of two, with empty runs and duplicate keys, on both curves, also
// when every other run arrives Unranked, as runs decoded from a wire do.
func TestMergeRunsMatchesTreeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			for _, n := range []int{0, 1, 2, 3, 5, 16, 17} {
				for _, size := range []int{0, 1, 7, 3000} {
					keys := octree.RandomKeys(rng, size, dim, octree.Normal, 0, 12)
					keys = append(keys, keys[:size/3]...) // duplicates
					if n == 0 {
						keys = nil
					}
					want := slices.Clone(keys)
					psort.TreeSort(curve, want)
					var runs [][]psort.KeyRank
					if n > 0 {
						runs = sortedRuns(rng, curve, keys, n)
					}
					for r := 1; r < len(runs); r += 2 {
						for i := range runs[r] {
							runs[r][i].Rank = psort.Unranked
						}
					}
					got := make([]sfc.Key, len(keys))
					psort.MergeRuns(curve, runs, got)
					if !slices.Equal(got, want) {
						t.Fatalf("%v %d-D: %d runs of %d keys merge out of TreeSort order", kind, dim, n, len(keys))
					}
				}
			}
		}
	}
}

// TestKeyRankWireForm: the wire form is the key's 13 bytes alone, ReadElem
// consumes exactly those and leaves the rank Unranked, which no key ranks.
func TestKeyRankWireForm(t *testing.T) {
	in := psort.KeyRank{Key: sfc.Key{X: 1 << 29, Y: 3 << 20, Z: 7, Level: 30}, Rank: sfc.Rank128{Hi: 0x7fffffff, Lo: 0x0123456789abcdef}}
	enc := in.AppendElem([]byte{0xee})[1:]
	if want := in.Key.AppendElem(nil); !slices.Equal(enc, want) {
		t.Fatalf("wire form %x, want the key's %x", enc, want)
	}
	var got psort.KeyRank
	if rest := got.ReadElem(append(enc, 0xee)); len(rest) != 1 || rest[0] != 0xee {
		t.Fatalf("ReadElem left %x, want the one byte after the element", rest)
	}
	if got.Key != in.Key || got.Rank != psort.Unranked {
		t.Fatalf("decoded %+v, want key %+v, rank Unranked", got, in.Key)
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
		for _, dim := range []int{2, 3} {
			c := sfc.NewCurve(kind, dim)
			last := sfc.Key{X: 1<<sfc.MaxLevel - 1, Y: 1<<sfc.MaxLevel - 1, Level: sfc.MaxLevel}
			if dim == 3 {
				last.Z = last.X
			}
			if r := c.Rank(last); !r.Less(psort.Unranked) {
				t.Fatalf("%v %d-D: %v ranks %v, not below Unranked", kind, dim, last, r)
			}
		}
	}
}

// BenchmarkMergeRuns prices the exchange's receive side at static-large's
// shape: 16 sorted runs of 1024 Normal keys each.
func BenchmarkMergeRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := octree.RandomKeys(rng, 1<<14, 3, octree.Normal, 2, 18)
	runs := sortedRuns(rng, curve, keys, 16)
	out := make([]sfc.Key, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psort.MergeRuns(curve, runs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
