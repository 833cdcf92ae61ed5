package fault

// Network-fault injection: the NetPlan describes, ahead of time and
// reproducibly, how the wire misbehaves — which directed links drop,
// corrupt, duplicate, or delay traffic, at what rates, for which
// collectives. It compiles into the comm transport's NetInjector the same
// way Plan compiles into Hooks.
//
// Rates are per frame: the transport segments a message of b bytes into
// ceil(b/MTU) frames and offers each to the injector separately, so a long
// message loses frames in proportion to its length. That choice is what
// ties loss to the quantity the partitioner controls — boundary bytes
// (Gadouleau & Weinzierl's surface-to-volume analysis): a partition with
// smaller halo messages genuinely retransmits fewer bytes, which the
// losses experiment measures.
//
// Decisions are drawn by hashing (seed, src, dst, op, seq, pkt, attempt),
// not from shared RNG state, so a plan's behavior is a pure function of
// frame identity: the same seeded plan over the same traffic yields
// bit-identical drops, retries, and modeled time, in any call order.

import (
	"fmt"

	"optipart/internal/comm"
	"optipart/internal/par"
)

// LinkFault describes the unreliability of one directed link, or of a
// wildcard class of links. Rates are per frame in [0, 1]; Delay is added
// to every attempt on the link (a slow or congested path).
type LinkFault struct {
	Src, Dst int    // rank ids; -1 matches any rank
	Op       string // collective name ("allreduce", "alltoallv", ...); "" matches any

	DropRate    float64 // per-frame probability the frame vanishes
	CorruptRate float64 // per-frame probability the checksum fails at the receiver
	DupRate     float64 // per-frame probability a duplicate copy is delivered
	Delay       float64 // fixed extra seconds of latency per attempt
}

func (lf LinkFault) matches(src, dst int, op string) bool {
	return (lf.Src == -1 || lf.Src == src) &&
		(lf.Dst == -1 || lf.Dst == dst) &&
		(lf.Op == "" || lf.Op == op)
}

func (lf LinkFault) quiet() bool {
	return lf.DropRate == 0 && lf.CorruptRate == 0 && lf.DupRate == 0 && lf.Delay == 0
}

// NetPlan is a deterministic network-fault schedule. The zero value (and
// nil) injects nothing.
type NetPlan struct {
	// Seed makes the plan's per-message coin flips reproducible.
	Seed int64
	// Links are matched first-to-last; the first match decides a frame's
	// fate, so put specific links before wildcards.
	Links []LinkFault
	// Transport tunes the reliable-delivery machinery (MTU, timeout,
	// backoff, retransmit cap) used under this plan; the zero value means
	// defaults.
	Transport comm.TransportOptions
}

// UniformLoss is the common case: every link drops packets at dropRate and
// corrupts them at corruptRate, for every collective.
func UniformLoss(seed int64, dropRate, corruptRate float64) *NetPlan {
	return &NetPlan{
		Seed: seed,
		Links: []LinkFault{{
			Src: -1, Dst: -1,
			DropRate: dropRate, CorruptRate: corruptRate,
		}},
	}
}

// Empty reports whether the plan injects nothing.
func (np *NetPlan) Empty() bool {
	if np == nil {
		return true
	}
	for _, lf := range np.Links {
		if !lf.quiet() {
			return false
		}
	}
	return true
}

// Validate checks the plan against a p-rank world: ranks must be -1 or in
// [0, p), rates in [0, 1], delays non-negative. A plan that fails
// validation would either panic mid-campaign or silently never match —
// both worth catching before the run starts.
func (np *NetPlan) Validate(p int) error {
	if np == nil {
		return nil
	}
	for i, lf := range np.Links {
		if lf.Src < -1 || lf.Src >= p {
			return fmt.Errorf("fault: net link %d: src rank %d out of range [0,%d) (-1 for any)", i, lf.Src, p)
		}
		if lf.Dst < -1 || lf.Dst >= p {
			return fmt.Errorf("fault: net link %d: dst rank %d out of range [0,%d) (-1 for any)", i, lf.Dst, p)
		}
		for _, r := range []struct {
			name string
			v    float64
		}{{"drop", lf.DropRate}, {"corrupt", lf.CorruptRate}, {"dup", lf.DupRate}} {
			if r.v < 0 || r.v > 1 {
				return fmt.Errorf("fault: net link %d: %s rate %g outside [0,1]", i, r.name, r.v)
			}
		}
		if lf.Delay < 0 {
			return fmt.Errorf("fault: net link %d: negative delay %g", i, lf.Delay)
		}
	}
	return nil
}

// Injector compiles the plan into the transport's intercept point. The
// result is a pure function of the plan and the frame identity; an empty
// plan compiles to nil, which disables the transport path entirely.
func (np *NetPlan) Injector() comm.NetInjector {
	if np.Empty() {
		return nil
	}
	links := append([]LinkFault(nil), np.Links...)
	seed := par.SplitMix64(uint64(np.Seed) ^ 0x6E65747061756C74) // "netfault"
	return func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) comm.NetOutcome {
		for _, lf := range links {
			if !lf.matches(src, dst, op) {
				continue
			}
			out := comm.NetOutcome{Delay: lf.Delay}
			if lf.quiet() {
				return out
			}
			h := frameHash(seed, src, dst, op, seq, pkt, attempt)
			if unitLane(h, 0) < lf.DropRate {
				out.Drop = true
				return out
			}
			if unitLane(h, 1) < lf.CorruptRate {
				out.Corrupt = true
			}
			if unitLane(h, 2) < lf.DupRate {
				out.Duplicate = true
			}
			return out
		}
		return comm.NetOutcome{}
	}
}

// frameHash condenses a frame attempt's identity into 64 mixed bits.
func frameHash(seed uint64, src, dst int, op string, seq uint64, pkt, attempt int) uint64 {
	h := par.SplitMix64(par.FNV1a(seed, op) ^ uint64(src)<<32 ^ uint64(dst))
	h = par.SplitMix64(h ^ seq)
	h = par.SplitMix64(h ^ uint64(pkt))
	return par.SplitMix64(h ^ uint64(attempt))
}

// unitLane derives an independent uniform draw in [0, 1) from hash lane i.
func unitLane(h uint64, lane uint64) float64 {
	return float64(par.SplitMix64(h^lane*0xA24BAED4963EE407)>>11) / (1 << 53)
}
