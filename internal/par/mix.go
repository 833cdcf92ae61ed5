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
