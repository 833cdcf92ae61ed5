package comm

import (
	"errors"
	"reflect"
	"testing"

	"optipart/internal/par"
)

// cleanNet is a non-nil injector that injects nothing: it forces the full
// transport path (segmentation, checksums, sequence numbers, verification)
// while the network behaves perfectly.
func cleanNet(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
	return NetOutcome{}
}

// hashNet builds a deterministic injector dropping/corrupting/duplicating
// frames at the given per-frame rates, without depending on internal/fault
// (which would be an import cycle from this package's tests).
func hashNet(seed uint64, drop, corrupt, dup float64) NetInjector {
	return func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		h := par.SplitMix64(par.FNV1a(seed, op) ^ uint64(src)<<32 ^ uint64(dst))
		h = par.SplitMix64(h ^ seq)
		h = par.SplitMix64(h ^ uint64(pkt))
		h = par.SplitMix64(h ^ uint64(attempt))
		unit := func(lane uint64) float64 {
			return float64(par.SplitMix64(h^lane*0xA24BAED4963EE407)>>11) / (1 << 53)
		}
		var out NetOutcome
		if unit(0) < drop {
			out.Drop = true
			return out
		}
		out.Corrupt = unit(1) < corrupt
		out.Duplicate = unit(2) < dup
		return out
	}
}

// exerciseAll drives every collective with rank-dependent data and returns
// a digest slice identical across runs iff every collective delivered
// bit-identical results on every rank.
func exerciseAll(c *Comm, out [][]int64) {
	r := int64(c.Rank())
	p := int64(c.Size())
	var digest []int64

	red := Allreduce(c, []int64{r, r * r, 7}, 8, SumI64)
	digest = append(digest, red...)

	gat := Allgather(c, []int64{r, r + p}, 8)
	digest = append(digest, gat...)

	send := make([][]int64, c.Size())
	for dst := range send {
		for k := 0; k < (c.Rank()+dst)%3+1; k++ {
			send[dst] = append(send[dst], r*1000+int64(dst)*10+int64(k))
		}
	}
	for _, part := range Alltoallv(c, send, 8, AlltoallvOptions{StageWidth: 2}) {
		digest = append(digest, part...)
	}
	for _, part := range Alltoallv(c, send, 8, AlltoallvOptions{Sparse: true}) {
		digest = append(digest, part...)
	}

	c.Barrier()
	out[c.Rank()] = digest
}

var transportModel = CostModel{Tc: 1e-9, Ts: 3e-5, Tw: 4e-8}

// TestTransportZeroLossParity is the acceptance gate: with a transport
// installed but a network that loses nothing, the run must reproduce a run
// without a Net exactly — identical results, clocks, byte and message counts,
// and zero retransmissions.
func TestTransportZeroLossParity(t *testing.T) {
	const p = 8
	plain := make([][]int64, p)
	lossless := make([][]int64, p)
	st0 := Run(p, transportModel, func(c *Comm) { exerciseAll(c, plain) })
	st1, err := RunCheckedOpts(p, transportModel, CheckedOptions{Net: cleanNet},
		func(c *Comm) error { exerciseAll(c, lossless); return nil })
	if err != nil {
		t.Fatalf("zero-loss transport run failed: %v", err)
	}
	if !reflect.DeepEqual(plain, lossless) {
		t.Fatalf("zero-loss transport changed collective results")
	}
	if !reflect.DeepEqual(st0.Clocks, st1.Clocks) {
		t.Fatalf("zero-loss transport changed clocks: %v vs %v", st0.Clocks, st1.Clocks)
	}
	if !reflect.DeepEqual(st0.BytesSent, st1.BytesSent) || !reflect.DeepEqual(st0.MsgsSent, st1.MsgsSent) {
		t.Fatalf("zero-loss transport changed traffic accounting")
	}
	if st1.TotalRetransmits() != 0 || st1.TotalRetryBytes() != 0 || st1.TotalDuplicates() != 0 {
		t.Fatalf("zero-loss transport reported retries: %d retransmits, %d retry bytes, %d dups",
			st1.TotalRetransmits(), st1.TotalRetryBytes(), st1.TotalDuplicates())
	}
}

// TestTransportLossyCorrectness: at 20% drop / 5% corruption / 5%
// duplication, every collective still delivers bit-identical results —
// reliable delivery hides the loss — while the stats report the waste and
// the clock pays for it.
func TestTransportLossyCorrectness(t *testing.T) {
	const p = 8
	clean := make([][]int64, p)
	lossy := make([][]int64, p)
	st0 := Run(p, transportModel, func(c *Comm) { exerciseAll(c, clean) })
	st1, err := RunCheckedOpts(p, transportModel,
		CheckedOptions{Net: hashNet(12345, 0.20, 0.05, 0.05)},
		func(c *Comm) error { exerciseAll(c, lossy); return nil })
	if err != nil {
		t.Fatalf("lossy run failed: %v", err)
	}
	if !reflect.DeepEqual(clean, lossy) {
		t.Fatalf("loss corrupted collective results")
	}
	if st1.TotalRetransmits() == 0 {
		t.Fatalf("20%% drop produced no retransmissions")
	}
	if st1.TotalRetryBytes() == 0 {
		t.Fatalf("20%% drop produced no retry bytes")
	}
	if st1.Time() <= st0.Time() {
		t.Fatalf("lossy run not slower than clean run: %g <= %g", st1.Time(), st0.Time())
	}
	if st1.TotalBytes() <= st0.TotalBytes() {
		t.Fatalf("lossy run placed no extra bytes on the wire")
	}
}

// TestTransportDeterminism: the same injector and body must reproduce the
// entire lossy timeline bit-identically — clocks, traffic, retransmits.
func TestTransportDeterminism(t *testing.T) {
	const p = 8
	run := func() (*Stats, [][]int64) {
		out := make([][]int64, p)
		st, err := RunCheckedOpts(p, transportModel,
			CheckedOptions{Net: hashNet(99, 0.15, 0.04, 0.03)},
			func(c *Comm) error { exerciseAll(c, out); return nil })
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return st, out
	}
	st1, out1 := run()
	st2, out2 := run()
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("results differ across identical lossy runs")
	}
	if !reflect.DeepEqual(st1.Clocks, st2.Clocks) {
		t.Fatalf("clocks differ across identical lossy runs: %v vs %v", st1.Clocks, st2.Clocks)
	}
	for _, pair := range [][2][]int64{
		{st1.BytesSent, st2.BytesSent}, {st1.MsgsSent, st2.MsgsSent},
		{st1.Retransmits, st2.Retransmits}, {st1.RetryBytes, st2.RetryBytes},
		{st1.Duplicates, st2.Duplicates},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("traffic accounting differs across identical lossy runs: %v vs %v", pair[0], pair[1])
		}
	}
}

// TestTransportLinkFailure: a link that eats every frame must escalate to a
// structured *LinkFailure naming the link within the retransmit cap — not
// hang, not loop forever.
func TestTransportLinkFailure(t *testing.T) {
	const p = 4
	deadDst := 2
	inj := func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		return NetOutcome{Drop: dst == deadDst}
	}
	_, err := RunCheckedOpts(p, transportModel,
		CheckedOptions{Net: inj, Transport: TransportOptions{MaxRetries: 3}},
		func(c *Comm) error {
			AllreduceScalar(c, int64(c.Rank()), 8, SumI64)
			return nil
		})
	var lf *LinkFailure
	if !errors.As(err, &lf) {
		t.Fatalf("want *LinkFailure, got %v", err)
	}
	if lf.Dst != deadDst {
		t.Fatalf("LinkFailure names wrong link: %v", lf)
	}
	if lf.Attempts != 4 || lf.Cap != 3 {
		t.Fatalf("want 4 attempts against cap 3, got %v", lf)
	}
	if lf.Op != "allreduce" {
		t.Fatalf("LinkFailure names wrong op: %v", lf)
	}
}

// TestTransportCorruptionDetected: corruption alone (no drops) must be
// caught by checksum verification and retried — the result stays correct
// and the retries are visible; with a cap of zero retries it must fail
// structurally rather than deliver bad data.
func TestTransportCorruptionDetected(t *testing.T) {
	const p = 4
	corruptOnce := func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		return NetOutcome{Corrupt: attempt == 0}
	}
	want := int64(0 + 1 + 2 + 3)
	var got int64
	st, err := RunCheckedOpts(p, transportModel, CheckedOptions{Net: corruptOnce},
		func(c *Comm) error {
			if v := AllreduceScalar(c, int64(c.Rank()), 8, SumI64); c.Rank() == 0 {
				got = v
			}
			return nil
		})
	if err != nil {
		t.Fatalf("corruption with retries available failed the world: %v", err)
	}
	if got != want {
		t.Fatalf("corrupted delivery leaked: got %d want %d", got, want)
	}
	if st.TotalRetransmits() == 0 {
		t.Fatalf("corruption produced no retransmissions")
	}

	alwaysCorrupt := func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		return NetOutcome{Corrupt: true}
	}
	_, err = RunCheckedOpts(p, transportModel,
		CheckedOptions{Net: alwaysCorrupt, Transport: TransportOptions{MaxRetries: 2}},
		func(c *Comm) error {
			AllreduceScalar(c, int64(c.Rank()), 8, SumI64)
			return nil
		})
	var lf *LinkFailure
	if !errors.As(err, &lf) {
		t.Fatalf("persistent corruption: want *LinkFailure, got %v", err)
	}
}

// TestTransportSelectiveRepeat: with per-frame loss, a multi-frame message
// retransmits only its lost frames, so RetryBytes must be well below the
// full message size times the retransmit count upper bound.
func TestTransportSelectiveRepeat(t *testing.T) {
	const p = 2
	// Drop exactly frame 1 of seq 0 on its first attempt, everywhere.
	inj := func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		return NetOutcome{Drop: seq == 0 && pkt == 1 && attempt == 0}
	}
	const mtu = DefaultMTU
	vals := make([]int64, 5*mtu/8) // 5 full frames
	st, err := RunCheckedOpts(p, transportModel, CheckedOptions{Net: inj},
		func(c *Comm) error {
			Allreduce(c, vals, 8, SumI64)
			return nil
		})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// Each rank's seq-0 message to its partner lost one full frame.
	if got := st.TotalRetransmits(); got != 2 {
		t.Fatalf("want 2 retransmitted frames (one per direction), got %d", got)
	}
	if got := st.TotalRetryBytes(); got != int64(2*mtu) {
		t.Fatalf("selective repeat resent %d bytes, want %d (one frame per direction)", got, 2*mtu)
	}
}

// TestTransportDuplicatesDiscarded: duplicated frames are dropped by the
// receiver's sequence window — results unchanged, dups counted, extra
// bytes on the wire.
func TestTransportDuplicatesDiscarded(t *testing.T) {
	const p = 4
	dupAll := func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
		return NetOutcome{Duplicate: true}
	}
	want := int64(6)
	var got int64
	st, err := RunCheckedOpts(p, transportModel, CheckedOptions{Net: dupAll},
		func(c *Comm) error {
			if v := AllreduceScalar(c, int64(c.Rank()), 8, SumI64); c.Rank() == 0 {
				got = v
			}
			return nil
		})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got != want {
		t.Fatalf("duplication changed the reduction: got %d want %d", got, want)
	}
	if st.TotalDuplicates() == 0 {
		t.Fatalf("duplicates not counted")
	}
	if st.TotalRetransmits() != 0 {
		t.Fatalf("duplicates misclassified as retransmissions")
	}
}

// TestTransportTraceRetries: retries appear on the traced timeline as
// their own "retransmit" spans, disjoint from the collective spans.
func TestTransportTraceRetries(t *testing.T) {
	const p = 4
	tr := &Trace{}
	_, err := RunCheckedOpts(p, transportModel,
		CheckedOptions{Net: hashNet(7, 0.5, 0, 0), Trace: tr},
		func(c *Comm) error {
			AllreduceScalar(c, int64(c.Rank()), 8, SumI64)
			c.Barrier()
			return nil
		})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	totals := tr.OpTotals()
	if totals["retransmit"] <= 0 {
		t.Fatalf("no retransmit spans on the traced timeline: %v", totals)
	}
}

// TestPacketChecksum pins the checksum discipline: verification passes on
// an intact header, fails if any identity field or the carried checksum is
// perturbed.
func TestPacketChecksum(t *testing.T) {
	pk := packet{Src: 1, Dst: 2, Op: "allreduce", Seq: 9, Pkt: 3, Bytes: 1500}
	pk.Checksum = pk.sum()
	if !pk.verify() {
		t.Fatalf("intact packet failed verification")
	}
	cases := []packet{pk, pk, pk, pk, pk}
	cases[0].Checksum ^= corruptFlip
	cases[1].Seq++
	cases[2].Pkt++
	cases[3].Bytes--
	cases[4].Op = "allgather"
	for i, bad := range cases {
		if bad.verify() {
			t.Fatalf("perturbed packet %d passed verification", i)
		}
	}
}

// TestTransportBackoffGrows: repeated drops of the same frame must wait
// longer each round (bounded exponential backoff), so three drops cost
// more than three times one drop.
func TestTransportBackoffGrows(t *testing.T) {
	const p = 2
	dropFirstN := func(n int) NetInjector {
		return func(src, dst int, op string, seq uint64, pkt, attempt int, bytes int64) NetOutcome {
			return NetOutcome{Drop: attempt < n}
		}
	}
	timeWith := func(n int) float64 {
		st, err := RunCheckedOpts(p, transportModel, CheckedOptions{Net: dropFirstN(n)},
			func(c *Comm) error {
				AllreduceScalar(c, int64(c.Rank()), 8, SumI64)
				return nil
			})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return st.Time()
	}
	t0, t1, t3 := timeWith(0), timeWith(1), timeWith(3)
	if !(t3 > t1 && t1 > t0) {
		t.Fatalf("backoff not monotone: %g, %g, %g", t0, t1, t3)
	}
	if (t3 - t0) <= 3*(t1-t0)+1e-18 {
		t.Fatalf("no exponential growth: 3 drops cost %g, 1 drop costs %g", t3-t0, t1-t0)
	}
}

// --- Benchmarks: overhead of the simulated unreliable network -------------

func benchBody(c *Comm) {
	vals := make([]int64, 64)
	for i := 0; i < 20; i++ {
		Allreduce(c, vals, 8, SumI64)
		c.Barrier()
	}
}

func BenchmarkTransportCheckedNoNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunChecked(8, transportModel, func(c *Comm) error { benchBody(c); return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportZeroLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunCheckedOpts(8, transportModel, CheckedOptions{Net: cleanNet},
			func(c *Comm) error { benchBody(c); return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportLossy(b *testing.B) {
	inj := hashNet(1, 0.1, 0.02, 0.01)
	for i := 0; i < b.N; i++ {
		if _, err := RunCheckedOpts(8, transportModel, CheckedOptions{Net: inj},
			func(c *Comm) error { benchBody(c); return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
