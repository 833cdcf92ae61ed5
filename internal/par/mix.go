package par

// SplitMix64 is the SplitMix64 finalizer, a bijective full-avalanche mix
// over uint64. It is the one seeded mixer of the repository: evolver
// histories, campaign step seeds, simulated-network jitter and fault
// decisions, and reconnect backoff jitter all draw from it, so each stays a
// pure function of its seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNVOffset64 is the FNV-1a offset basis: the seed of an FNV1a sum.
const FNVOffset64 = 14695981039346656037

// fnvPrime64 is the 64-bit FNV prime.
const fnvPrime64 = 1099511628211

// FNV1a folds the bytes of b into a running 64-bit FNV-1a sum; start a fresh
// sum at FNVOffset64. It is the one byte checksum of the repository: the
// simulated transport's packet header, the wire frame and checkpoint
// trailers, and the fault injector's frame identity all fold through it.
func FNV1a[B ~string | ~[]byte](sum uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		sum = (sum ^ uint64(b[i])) * fnvPrime64
	}
	return sum
}
