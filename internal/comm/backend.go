package comm

// This file is the transport seam under the collectives. Every collective
// funnels through Comm.sync, whose protocol has three movements:
//
//	deposit  — each rank posts its contribution and its current clock;
//	exchange — rank 0, seeing every deposit, runs the collective's compute
//	           closure exactly once and advances the BSP clocks;
//	collect  — every rank consumes its private copy of the result.
//
// A Transport is a backend that carries those movements. The default is the
// in-process backend below — the original shared-memory world, goroutines
// meeting at a poisonable barrier, kept byte-for-byte identical to the
// pre-seam runtime so golden transcripts do not move. internal/net
// implements the same contract over real sockets, one OS process per rank,
// with the deposits and results written in their fixed-layout wire form
// (codec.go) into checksummed frames.
//
// Backends outside this package manipulate the world only through
// StepState's exported methods; the closures a StepState carries (compute,
// consume) are the same generic closures collectives.go builds, so a remote
// backend reproduces the in-process arithmetic exactly: compute still runs
// once, on rank 0, over every rank's deposit.

import "fmt"

// Transport carries the deposit/exchange/collect protocol of one SPMD
// world. Implementations must unblock every pending Step when the world
// fails (Cancel) and surface peer death as a structured error through the
// fail callback bound at run start.
type Transport interface {
	// Wire reports whether steps leave the process, i.e. whether each
	// collective must attach the wire codec of its deposit and scratch
	// values. The in-process backend returns false and moves everything
	// through shared memory.
	Wire() bool
	// Bind attaches a world at run start. fail reports an asynchronous
	// world failure (a dead peer, an exhausted reconnect budget) into the
	// world; it is safe to call from any goroutine and only the first
	// error wins.
	Bind(fail func(error))
	// Step carries one collective step for the calling rank. It returns
	// the rank's consumed result, or panics via StepState.Abort when the
	// world has failed.
	Step(st *StepState) any
	// Depart records that the rank's body returned; a transport uses it
	// to detect collectives that can never complete.
	Depart(rank int)
	// Cancel unblocks every rank after a world failure, propagating the
	// reason to remote peers where there are any. Idempotent.
	Cancel(reason error)
	// Generation counts completed synchronization steps — the progress
	// signal the stall watchdog samples.
	Generation() uint64
}

// StepState is one collective invocation in flight: the calling rank's
// deposit plus handles into the world state a backend is allowed to touch.
// Methods that name a rank accept any rank id; the in-process backend uses
// them under its own barrier discipline, a remote backend only for ranks it
// is authoritative for (rank 0 owns every clock, workers own their own).
type StepState struct {
	c         *Comm
	op        string
	elemBytes int
	deposit   any
	codec     valueCodec // wire form of the deposit and scratch; nil in process
	compute   func() float64
	consume   func(scratch any) any
}

// Op returns the collective's operation name.
func (s *StepState) Op() string { return s.op }

// ElemBytes returns the collective's element size, part of its signature.
func (s *StepState) ElemBytes() int { return s.elemBytes }

// LocalClock returns the calling rank's virtual clock.
func (s *StepState) LocalClock() float64 { return s.c.w.clocks[s.c.rank] }

// LocalPhase returns the calling rank's current phase label.
func (s *StepState) LocalPhase() string { return s.c.w.phases[s.c.rank] }

// AppendDeposit appends the wire form of the calling rank's contribution
// to dst (nothing for a collective that carries no value, like Barrier).
func (s *StepState) AppendDeposit(dst []byte) []byte {
	if s.codec == nil {
		return dst
	}
	return s.codec.appendValue(dst, s.deposit, false)
}

// SetRemoteBytes decodes a peer rank's deposit from its wire form and
// installs it into the world with the rank's clock and phase, making the
// rank visible to the compute closure exactly as if it had deposited
// through shared memory. Rank 0 of a remote world calls this for every
// peer before ComputeCost. A malformed deposit is an error and leaves the
// world untouched.
func (s *StepState) SetRemoteBytes(rank int, clock float64, phase string, b []byte) error {
	v, err := s.decode(b, false)
	if err != nil {
		return err
	}
	w := s.c.w
	w.slots[rank] = v
	w.clocks[rank] = clock
	w.phases[rank] = phase
	return nil
}

// decode reads the wire form of a deposit, or of the scratch aggregate.
func (s *StepState) decode(b []byte, scratch bool) (any, error) {
	if s.codec != nil {
		return s.codec.decodeValue(b, scratch)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("comm: %s carries no value, got %d bytes", s.op, len(b))
	}
	return nil, nil
}

// SetLocalDeposit posts the calling rank's own deposit into its slot.
func (s *StepState) SetLocalDeposit() { s.c.w.slots[s.c.rank] = s.deposit }

// ComputeCost runs the collective's compute closure — exactly once per
// step, on rank 0, with every slot populated — and returns the step's BSP
// cost with the CollectiveScale hook applied.
func (s *StepState) ComputeCost() float64 {
	w := s.c.w
	cost := s.compute()
	if sc := w.hooks.CollectiveScale; sc != nil {
		cost *= sc(s.op)
	}
	return cost
}

// AppendScratch appends the wire form of the aggregate the compute closure
// left for consumers to dst.
func (s *StepState) AppendScratch(dst []byte) []byte {
	if s.codec == nil {
		return dst
	}
	return s.codec.appendValue(dst, s.c.w.scratch, true)
}

// SetScratchBytes decodes the aggregate a rank received from the computing
// rank and installs it, so Consume can run locally.
func (s *StepState) SetScratchBytes(b []byte) error {
	v, err := s.decode(b, true)
	if err != nil {
		return err
	}
	s.c.w.scratch = v
	return nil
}

// FinishStep advances every rank's clock under BSP semantics — the step
// starts when the last deposited clock arrives and costs the same
// everywhere — charging each rank's phase and trace. It returns the common
// end time the backend must deliver to every peer.
func (s *StepState) FinishStep(cost float64) float64 {
	return s.c.w.advanceClocks(s.op, cost)
}

// ApplyClock sets the calling rank's clock to the step-end time the
// computing rank broadcast, charging the delta to the rank's current phase.
func (s *StepState) ApplyClock(end float64) {
	w := s.c.w
	r := s.c.rank
	dt := end - w.clocks[r]
	if w.trace != nil {
		w.trace.add(Event{
			Rank: r, Phase: w.phases[r], Op: s.op,
			Start: w.clocks[r], End: end,
		})
	}
	w.clocks[r] = end
	w.phaseTime[r][w.phases[r]] += dt
}

// Consume runs the collective's consume closure against the current
// scratch, returning the rank's private copy of the result.
func (s *StepState) Consume() any {
	if s.consume == nil {
		return nil
	}
	return s.consume(s.c.w.scratch)
}

// Abort records err as the world's failure (when non-nil; the first error
// wins) and unwinds the calling rank out of the step. It does not return.
func (s *StepState) Abort(err error) {
	if err != nil {
		s.c.w.fail(err)
	}
	panic(worldAbort{})
}

// advanceClocks applies the BSP clock update of one step: the step starts
// at the latest deposited clock and costs the same on every rank.
func (w *World) advanceClocks(op string, cost float64) float64 {
	start := 0.0
	for _, t := range w.clocks {
		if t > start {
			start = t
		}
	}
	end := start + cost
	for i := range w.clocks {
		dt := end - w.clocks[i]
		if w.trace != nil {
			w.trace.add(Event{
				Rank: i, Phase: w.phases[i], Op: op,
				Start: w.clocks[i], End: end,
			})
		}
		w.clocks[i] = end
		w.phaseTime[i][w.phases[i]] += dt
	}
	return end
}

// inprocTransport is the default backend: the original shared-memory world.
// All p ranks are goroutines of one process meeting at a poisonable
// barrier; deposits move by pointer assignment and cost nothing real.
type inprocTransport struct {
	w       *World
	barrier *barrier
}

func (t *inprocTransport) Wire() bool { return false }

// Bind arms the barrier: fail poisons the world on the first failure, and
// the world builds the error for a collective stranded by a departed rank.
func (t *inprocTransport) Bind(fail func(error)) {
	t.barrier.failf = fail
	t.barrier.abandoned = t.w.abandonedError
}

// Step is the original sync body: deposit under a barrier, compute on rank
// 0, consume on every rank, release under a final barrier.
func (t *inprocTransport) Step(st *StepState) any {
	c := st.c
	w := t.w
	st.SetLocalDeposit()
	t.barrier.wait(c.rank)
	if c.rank == 0 {
		w.verifySigs() // does not return on mismatch
		// BSP semantics: the step starts when the last rank arrives and
		// costs the same on every rank.
		w.advanceClocks(st.op, st.ComputeCost())
	}
	t.barrier.wait(c.rank)
	out := st.Consume()
	t.barrier.wait(c.rank) // slots, scratch, and deposits may be reused after this
	return out
}

func (t *inprocTransport) Depart(rank int) { t.barrier.depart(rank) }

func (t *inprocTransport) Cancel(error) { t.barrier.poison() }

func (t *inprocTransport) Generation() uint64 { return t.barrier.generation() }
