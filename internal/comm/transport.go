package comm

// This file is the unreliable-network delivery path under the collectives.
// A world without a NetInjector delivers every byte perfectly; real commodity networks
// (the CloudLab 10 GbE clusters the paper targets) drop, corrupt, duplicate,
// and delay packets. A world with a NetInjector installed replays every
// collective's logical messages through that network and pays for reliable
// delivery the way a production transport does:
//
//   - every logical message is segmented into MTU-sized frames, each
//     carrying a sequence number and a checksum over its header; the
//     receiver verifies and acknowledges;
//   - lost frames are selectively retransmitted after a timeout that backs
//     off exponentially (with deterministic jitter) up to a cap, so a large
//     message resends only the frames the network ate, not the whole body;
//   - a corrupted frame fails verification at the receiver, which NACKs,
//     and the sender retransmits immediately (fast retransmit);
//   - a duplicated frame is discarded by the receiver's sequence window
//     but its bytes still crossed the wire;
//   - a message that exhausts its retransmit budget escalates to a
//     structured *LinkFailure that tears the world down, handing control
//     to the rank-eviction/recovery-by-repartition path — never a hang.
//
// Payloads themselves always move through shared memory, so reliable
// delivery is exact: a run under any survivable loss plan produces
// bit-identical collective results to a lossless run. What loss changes is
// the virtual clock (timeouts, backoff, retransmission wire time) and the
// traffic accounting (Retransmits, RetryBytes, Duplicates in Stats).
//
// Everything here runs on rank 0's goroutine between the deposit and
// consume barriers of a sync step — the same single-threaded window where
// byte accounting already happens — so no locking is needed and, because
// injectors are pure functions of message identity, the whole lossy
// timeline is bit-reproducible across runs.

import (
	"encoding/binary"
	"time"

	"optipart/internal/par"
)

// NetOutcome describes what the network does to one delivery attempt of one
// frame. The zero value is clean delivery.
type NetOutcome struct {
	Drop      bool    // the frame vanishes; the sender's retransmit timer fires
	Corrupt   bool    // the frame arrives but fails checksum verification; the receiver NACKs
	Duplicate bool    // a second copy arrives; the receiver's sequence window drops it
	Delay     float64 // extra seconds of latency on this attempt (a slow or congested link)
}

// NetInjector decides the fate of one delivery attempt of one frame. seq is
// the message's sequence number on its directed (src,dst) link, pkt the
// frame's index within the message, attempt the 0-based transmission
// attempt, and bytes the frame's size — so loss rates apply per packet and
// a long message's fate scales with its length. Injectors must be pure
// functions of their arguments: the transport calls them in a deterministic
// order, and purity is what makes lossy runs replay bit-identically.
type NetInjector func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome

// Reliable-delivery constants. All timing is virtual: timeouts are priced in
// multiples of a message's modeled delivery time ts + tw·m, so the same
// constants adapt to fast and slow machine models.
const (
	// DefaultMTU is the frame size messages are segmented into; loss applies
	// per frame and retransmission resends only lost frames (selective
	// repeat).
	DefaultMTU = 1500
	// DefaultRTOFactor sets the retransmit timeout as a multiple of the
	// message's modeled delivery time.
	DefaultRTOFactor = 4.0
	// DefaultBackoffFactor multiplies the timeout after every drop-triggered
	// retransmission, up to DefaultMaxBackoffFactor times the base RTO.
	DefaultBackoffFactor    = 2.0
	DefaultMaxBackoffFactor = 16.0
	// DefaultJitterFrac adds a deterministic per-(message,attempt) jitter in
	// [0, DefaultJitterFrac) of the current timeout to each wait,
	// de-synchronizing retransmissions.
	DefaultJitterFrac = 0.1
	DefaultMaxRetries = 8
)

// TransportOptions tunes reliable delivery over an unreliable network. The
// zero value means defaults.
type TransportOptions struct {
	// MaxRetries caps retransmissions of one message. A message that fails
	// MaxRetries+1 attempts escalates to a *LinkFailure. <= 0 means
	// DefaultMaxRetries.
	MaxRetries int
}

func (o TransportOptions) withDefaults() TransportOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	return o
}

// netMsg is one logical message of a collective's communication pattern.
// Round groups messages that fly concurrently (one tree step or exchange
// stage): retry delays combine as the maximum within a round and the sum
// across rounds, matching the BSP pricing of the collectives themselves.
type netMsg struct {
	Src, Dst int
	Bytes    int64
	Round    int
}

// packet is the wire form of one frame of a logical message: the header the
// checksum covers. Payload bytes are not serialized (they move through
// shared memory), so the checksum binds identity — link, op, message
// sequence, frame index, length — which is what injected corruption flips
// and verification catches.
type packet struct {
	Src, Dst int
	Op       string
	Seq      uint64 // message sequence number on the (Src,Dst) link
	Pkt      int    // frame index within the message
	Bytes    int64  // this frame's payload bytes
	Checksum uint64
}

// corruptFlip is XORed into a corrupted packet's checksum on the wire.
const corruptFlip = 0xBAD1DEA5BAD1DEA5

// sum computes the FNV-1a checksum of the packet header: the op name, then
// the five integer fields as little-endian 8-byte words.
func (pk *packet) sum() uint64 {
	var b [40]byte
	for j, v := range [...]uint64{uint64(pk.Src), uint64(pk.Dst), pk.Seq, uint64(pk.Pkt), uint64(pk.Bytes)} {
		binary.LittleEndian.PutUint64(b[8*j:], v)
	}
	return par.FNV1a(par.FNV1a(par.FNVOffset64, pk.Op), b[:])
}

// verify reports whether the packet's carried checksum matches its header.
func (pk *packet) verify() bool { return pk.Checksum == pk.sum() }

// unitJitter maps a message attempt to a deterministic value in [0, 1).
func unitJitter(pk *packet, attempt int) float64 {
	h := par.SplitMix64(pk.sum() ^ uint64(attempt)*0x9E3779B97F4A7C15)
	return float64(h>>11) / (1 << 53)
}

// Backoff is the one exponential retry schedule of the real processes: the
// wire transport's reconnect loop and the supervisor's respawn budget.
// Attempt k (0-based) waits Base·2^k, capped at Max, stretched by up to 25%
// by a jitter drawn from the seed and attempt number alone. Determinism
// makes backoff schedules assertable in unit tests — same seed, same
// delays — while still decorrelating real fleets, which each seed from
// their rank.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Jitter int64 // seed; 0 means no jitter
}

// Delay returns the wait before attempt k (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter != 0 {
		h := par.SplitMix64(uint64(b.Jitter) + uint64(attempt)*0x9e3779b97f4a7c15)
		frac := float64(h>>11) / float64(1<<53) // uniform [0, 1)
		d += time.Duration(frac * 0.25 * float64(d))
	}
	return d
}

// netStep replays the pending collective step's logical messages through
// the unreliable network and returns the extra virtual time the step costs
// on top of its lossless BSP price. It runs on rank 0 between the deposit
// and consume barriers. A message that exhausts its retransmit budget
// returns a *LinkFailure; the caller tears the world down with it.
func (w *World) netStep(op string) (float64, error) {
	msgs := w.pendingMsgs
	w.pendingMsgs = msgs[:0]
	rounds := w.roundsBuf[:0]
	for i := range msgs {
		extra, err := w.deliver(op, &msgs[i])
		if err != nil {
			return 0, err
		}
		for msgs[i].Round >= len(rounds) {
			rounds = append(rounds, 0)
		}
		if extra > rounds[msgs[i].Round] {
			rounds[msgs[i].Round] = extra
		}
	}
	var total float64
	for _, v := range rounds {
		total += v
	}
	w.roundsBuf = rounds[:0]
	return total, nil
}

// deliver pushes one logical message through the network until every frame
// is acknowledged or the retransmit budget is exhausted, returning the
// extra virtual time (timeouts, backoff, retransmission wire time) it
// cost. Retransmission is selective repeat: only the frames the network ate
// are resent. Traffic accounting for retransmissions and duplicates is
// charged to the ranks as a side effect.
func (w *World) deliver(op string, m *netMsg) (float64, error) {
	opts := w.netOpts
	const mtu = int64(DefaultMTU)
	idx := m.Src*w.p + m.Dst
	seq := w.netSeq[idx]
	w.netSeq[idx]++

	npkts := int((m.Bytes + mtu - 1) / mtu)
	if npkts < 1 {
		npkts = 1 // header-only messages (barrier) still ride one frame
	}
	frameBytes := func(i int) int64 {
		if i < npkts-1 || m.Bytes == 0 {
			if m.Bytes == 0 {
				return 0
			}
			return mtu
		}
		return m.Bytes - mtu*int64(npkts-1)
	}
	rto := DefaultRTOFactor * (w.model.Ts + w.model.Tw*float64(m.Bytes))
	backoff := rto
	jitterID := packet{Src: m.Src, Dst: m.Dst, Op: op, Seq: seq, Pkt: -1, Bytes: m.Bytes}

	// outstanding holds the frame indices not yet acknowledged.
	outstanding := w.pktScratch[:0]
	for i := 0; i < npkts; i++ {
		outstanding = append(outstanding, i)
	}
	defer func() { w.pktScratch = outstanding[:0] }()

	var extra float64
	for attempt := 0; ; attempt++ {
		var burstBytes int64
		for _, pi := range outstanding {
			burstBytes += frameBytes(pi)
		}
		if attempt > 0 {
			// A retransmission burst is real wire traffic, charged to the
			// sender and surfaced in the Retransmits/RetryBytes stats.
			w.retrans[m.Src] += int64(len(outstanding))
			w.retryBytes[m.Src] += burstBytes
			w.bytesSent[m.Src] += burstBytes
			w.msgsSent[m.Src]++
		}
		var roundDelay float64
		anyDrop := false
		remaining := outstanding[:0]
		for _, pi := range outstanding {
			pk := packet{Src: m.Src, Dst: m.Dst, Op: op, Seq: seq, Pkt: pi, Bytes: frameBytes(pi)}
			pk.Checksum = pk.sum()
			out := w.net(m.Src, m.Dst, op, seq, pi, attempt, pk.Bytes)
			if out.Delay > roundDelay {
				roundDelay = out.Delay // frames fly concurrently
			}
			wire := pk
			if out.Corrupt {
				wire.Checksum ^= corruptFlip
			}
			if out.Drop || !wire.verify() {
				anyDrop = anyDrop || out.Drop
				remaining = append(remaining, pi)
				continue
			}
			if out.Duplicate {
				w.dups[m.Dst]++
				w.bytesSent[m.Src] += pk.Bytes
				w.msgsSent[m.Src]++
			}
		}
		outstanding = remaining
		extra += roundDelay
		if len(outstanding) == 0 {
			// Fully delivered and verified: the receiver acks. The lossless
			// BSP formula already priced the first transmission; a
			// successful retransmission burst pays its own wire time.
			if attempt > 0 {
				extra += w.model.Ts + w.model.Tw*float64(burstBytes)
			}
			return extra, nil
		}
		if attempt >= opts.MaxRetries {
			return 0, &LinkFailure{
				Src: m.Src, Dst: m.Dst, Op: op, Seq: seq,
				Attempts: attempt + 1, Cap: opts.MaxRetries,
			}
		}
		if anyDrop {
			// Silence: the sender's retransmit timer expires after the
			// current backoff plus deterministic jitter.
			extra += backoff * (1 + DefaultJitterFrac*unitJitter(&jitterID, attempt))
			backoff *= DefaultBackoffFactor
			if max := rto * DefaultMaxBackoffFactor; backoff > max {
				backoff = max
			}
		} else {
			// Checksum failures only: the corrupted frames burned a full
			// burst delivery, the receiver NACKed (one latency), and the
			// sender retransmits immediately — no timeout, no backoff
			// growth (fast retransmit).
			extra += w.model.Ts + w.model.Tw*float64(burstBytes) + w.model.Ts
		}
	}
}

// The pattern builders below describe each collective's logical messages —
// who sends how many bytes to whom, in which concurrent round — mirroring
// the tree/recursive-doubling/staged algorithms the BSP cost formulas in
// collectives.go price. They are only invoked when a NetInjector is
// installed, so lossless worlds pay nothing. For non-power-of-two p the
// tree patterns skip out-of-range partners, a standard approximation.

// netTree appends the recursive-doubling exchange: log2(p) rounds, rank r
// sending bytes to partner r XOR 2^s in round s (allreduce, scan, barrier).
func netTree(msgs []netMsg, p int, bytes int64) []netMsg {
	steps := int(log2p(p))
	for s := 0; s < steps; s++ {
		for r := 0; r < p; r++ {
			if q := r ^ (1 << s); q < p {
				msgs = append(msgs, netMsg{Src: r, Dst: q, Bytes: bytes, Round: s})
			}
		}
	}
	return msgs
}

// netAllgather appends the recursive-doubling allgather: in round s each
// rank ships its accumulated 2^s-aligned block, so message sizes double as
// the gathered prefix grows. contrib is each rank's contribution in bytes;
// pre is caller-provided scratch of length p+1 for the prefix sums.
func netAllgather(msgs []netMsg, p int, contrib, pre []int64) []netMsg {
	pre[0] = 0
	for i, b := range contrib {
		pre[i+1] = pre[i] + b
	}
	steps := int(log2p(p))
	for s := 0; s < steps; s++ {
		size := 1 << s
		for r := 0; r < p; r++ {
			q := r ^ size
			if q >= p {
				continue
			}
			lo := r &^ (size - 1)
			hi := lo + size
			if hi > p {
				hi = p
			}
			msgs = append(msgs, netMsg{Src: r, Dst: q, Bytes: pre[hi] - pre[lo], Round: s})
		}
	}
	return msgs
}
