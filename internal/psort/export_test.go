package psort

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

// Trimmed is trimmed, instantiated at the call site.
func Trimmed[T any](col []T) []T { return trimmed(col) }
