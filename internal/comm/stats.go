package comm

import "time"

// Stats is the accounting of one SPMD run: modeled times per rank and phase,
// and actual communication volumes. All values are deterministic functions
// of the algorithm and its inputs.
type Stats struct {
	P          int
	Clocks     []float64            // per-rank total virtual time
	PhaseTimes []map[string]float64 // per-rank virtual time per phase
	BytesSent  []int64              // per-rank bytes placed on the network
	MsgsSent   []int64              // per-rank message count

	// Transport accounting, nil unless the run used the unreliable-network
	// delivery path (transport.go). Retransmitted and duplicated bytes are
	// also folded into BytesSent/MsgsSent — these break out the waste.
	Retransmits []int64 // per-rank retransmitted message count
	RetryBytes  []int64 // per-rank retransmitted bytes
	Duplicates  []int64 // per-rank duplicate deliveries discarded (receiver side)

	// Recovery is the self-healing layer's accounting, nil unless the run
	// rode a transport or harness that repairs failures (wire Restore
	// policy, chaos harness). It is attached by the driver after the run:
	// recovery happens below the collective layer, outside the modeled
	// clocks.
	Recovery *RecoveryStats
}

// RecoveryStats aggregates what the self-healing layer did during a run:
// deaths declared, incarnations readmitted, connections re-dialed, bytes of
// state replayed or restored, and wall-clock downtime between a death and
// the rejoin that repaired it.
type RecoveryStats struct {
	Deaths        int           // ranks declared dead (heartbeat expiry or mid-campaign drain)
	Rejoins       int           // replacement incarnations admitted back into the world
	Redials       int           // connections re-admitted on an existing membership slot
	RestoredBytes int64         // bytes replayed or re-read to bring a rank back (result log + snapshots)
	Downtime      time.Duration // wall-clock death→rejoin, summed over rejoins
}

// MTTR is the mean time to repair: average downtime per completed rejoin,
// zero when nothing was repaired.
func (r RecoveryStats) MTTR() time.Duration {
	if r.Rejoins == 0 {
		return 0
	}
	return r.Downtime / time.Duration(r.Rejoins)
}

func newStats(w *World) *Stats {
	s := &Stats{
		P:          w.p,
		Clocks:     w.clocks,
		PhaseTimes: w.phaseTime,
		BytesSent:  w.bytesSent,
		MsgsSent:   w.msgsSent,

		Retransmits: w.retrans,
		RetryBytes:  w.retryBytes,
		Duplicates:  w.dups,
	}
	return s
}

// Time returns the modeled parallel runtime: the maximum rank clock.
func (s *Stats) Time() float64 {
	var t float64
	for _, c := range s.Clocks {
		if c > t {
			t = c
		}
	}
	return t
}

// Phase returns the modeled time of one phase: the maximum across ranks.
func (s *Stats) Phase(name string) float64 {
	var t float64
	for _, m := range s.PhaseTimes {
		if v := m[name]; v > t {
			t = v
		}
	}
	return t
}

// TotalBytes returns the total bytes placed on the network by all ranks.
func (s *Stats) TotalBytes() int64 {
	var b int64
	for _, v := range s.BytesSent {
		b += v
	}
	return b
}

// TotalMsgs returns the total message count across ranks.
func (s *Stats) TotalMsgs() int64 {
	var m int64
	for _, v := range s.MsgsSent {
		m += v
	}
	return m
}

// TotalRetransmits returns the total retransmitted-message count across
// ranks; zero for runs without the unreliable transport.
func (s *Stats) TotalRetransmits() int64 { return sumI64(s.Retransmits) }

// TotalRetryBytes returns the total retransmitted bytes across ranks.
func (s *Stats) TotalRetryBytes() int64 { return sumI64(s.RetryBytes) }

// TotalDuplicates returns the total duplicate deliveries discarded.
func (s *Stats) TotalDuplicates() int64 { return sumI64(s.Duplicates) }

func sumI64(vs []int64) int64 {
	var t int64
	for _, v := range vs {
		t += v
	}
	return t
}
