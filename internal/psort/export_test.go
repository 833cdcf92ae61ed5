package psort

import "optipart/internal/sfc"

// The sort tests live in the external psort_test package, because they draw
// their inputs from octree, which imports psort. These are the internals
// they exercise.

const (
	ParallelCutoff  = parallelCutoff
	RankGrain       = rankGrain
	InsertionCutoff = insertionCutoff
)

var (
	RadixSortSoA    = radixSortSoA
	ParRadixSortSoA = parRadixSortSoA
)

// Grow sizes the rank columns and the key scratch to n, as a sort does.
func (a *Arena) Grow(n int) { a.grow(n) }

// RankAlt returns the scratch rank column, which only a sort resizes.
func RankAlt(a *Arena) []sfc.Rank128 { return a.rAlt }

// Trimmed is trimmed, instantiated at the call site.
func Trimmed[T any](col []T) []T { return trimmed(col) }
