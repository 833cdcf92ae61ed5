package octree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Distribution selects the spatial distribution of generated octants,
// matching §4.2 of the paper: uniform, normal, and log-normal over the unit
// cube. The paper reports no significant performance difference across the
// three and presents results for the normal distribution; we default to
// Normal as well.
type Distribution int

const (
	Uniform Distribution = iota
	Normal
	LogNormal
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case LogNormal:
		return "lognormal"
	}
	return "unknown"
}

// ParseDistribution maps a distribution name, compared without regard to
// case, to its Distribution: the String forms "uniform", "normal" and
// "lognormal". It is the one reader of the commands' -dist flag.
func ParseDistribution(s string) (Distribution, error) {
	for _, d := range []Distribution{Uniform, Normal, LogNormal} {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("octree: unknown distribution %q (want uniform, normal or lognormal)", s)
}

// sample draws one coordinate in [0,1).
func (d Distribution) sample(rng *rand.Rand) float64 {
	switch d {
	case Normal:
		return clamp01(0.5 + 0.15*rng.NormFloat64())
	case LogNormal:
		// exp(N(-2.5, 0.8)): mass concentrated near the low corner with a
		// long tail, a classic AMR hot-spot shape.
		return clamp01(math.Exp(-2.5 + 0.8*rng.NormFloat64()))
	default:
		return rng.Float64()
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math.Nextafter(1, 0)
	}
	return x
}

// RandomPoint returns one level-MaxLevel key with coordinates drawn from the
// distribution.
func RandomPoint(rng *rand.Rand, dim int, dist Distribution) sfc.Key {
	grid := float64(uint32(1) << sfc.MaxLevel)
	k := sfc.Key{
		X:     uint32(dist.sample(rng) * grid),
		Y:     uint32(dist.sample(rng) * grid),
		Level: sfc.MaxLevel,
	}
	if dim == 3 {
		k.Z = uint32(dist.sample(rng) * grid)
	}
	return k
}

// RandomKeys returns n independent octant keys with anchors drawn from the
// distribution and levels drawn uniformly from [minLevel, maxLevel]. The
// keys may duplicate or overlap; they model the raw element streams that the
// partitioning algorithms ingest (the paper's randomly generated octrees).
func RandomKeys(rng *rand.Rand, n, dim int, dist Distribution, minLevel, maxLevel uint8) []sfc.Key {
	if minLevel > maxLevel {
		minLevel, maxLevel = maxLevel, minLevel
	}
	keys := make([]sfc.Key, n)
	for i := range keys {
		level := minLevel + uint8(rng.Intn(int(maxLevel-minLevel)+1))
		keys[i] = RandomPoint(rng, dim, dist).Ancestor(level)
	}
	return keys
}

// AdaptiveMesh builds a complete linear octree refined around nSeeds sample
// points from the distribution, with leaves no deeper than maxLevel. The
// result is an adaptive mesh of the kind used for the paper's FEM
// experiments; its size grows with nSeeds (roughly a small multiple).
func AdaptiveMesh(rng *rand.Rand, nSeeds, dim int, dist Distribution, maxLevel uint8) *Tree {
	curve := sfc.NewCurve(sfc.Morton, dim)
	seeds := make([]sfc.Key, nSeeds)
	for i := range seeds {
		seeds[i] = RandomPoint(rng, dim, dist)
	}
	leaves := Complete(curve, seeds, maxLevel)
	return &Tree{Curve: curve, Leaves: leaves}
}

// WithCurve returns a view of the tree ordered along a different curve
// (re-sorting the leaves with psort.TreeSort). The leaf set is copied.
func (t *Tree) WithCurve(curve *sfc.Curve) *Tree {
	leaves := append([]sfc.Key(nil), t.Leaves...)
	psort.TreeSort(curve, leaves)
	return &Tree{Curve: curve, Leaves: leaves}
}
