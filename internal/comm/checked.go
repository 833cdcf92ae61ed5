package comm

import (
	"fmt"
	"sync"
	"time"
)

// This file is the front door of the runtime: RunCheckedOpts starts every
// in-process world (Run, RunTraced and RunChecked are wrappers over it;
// RunRank is its one-rank-per-process sibling over a wire transport). A
// world never behaves like an MPI job whose rank died without the others
// noticing; it has the behavior production MPI runtimes are required to
// have:
//
//   - every rank goroutine is recovered, so a panic becomes a structured
//     RankFailure naming the rank, its last op, and its phase;
//   - the barrier is poisoned on first failure, so survivors unblock
//     immediately instead of hanging;
//   - collective signatures are verified at every step, so mismatched
//     collectives report who called what instead of deadlocking;
//   - a watchdog converts any remaining stall (e.g. a rank blocked in its
//     own channel operation) into a StallError listing each stuck rank's
//     last op and phase.

// DefaultStallTimeout is the watchdog threshold used when CheckedOptions
// leaves StallTimeout zero. Collectives complete in microseconds of real
// time, so several seconds of no progress means the world is wedged.
const DefaultStallTimeout = 5 * time.Second

// CheckedOptions tunes RunCheckedOpts.
type CheckedOptions struct {
	// StallTimeout is the watchdog threshold: if no rank enters or
	// completes a collective for this long while ranks are still running,
	// the world fails with a StallError. Zero means DefaultStallTimeout;
	// negative disables the watchdog.
	StallTimeout time.Duration
	// Hooks intercept the runtime for fault injection (internal/fault).
	Hooks Hooks
	// Trace, when non-nil, records the run's timeline as in RunTraced.
	Trace *Trace
	// Net, when non-nil, routes every collective's logical messages through
	// the unreliable-network transport (transport.go): messages carry
	// checksums and sequence numbers, losses are retried with timeout and
	// backoff, and a dead link escalates to a *LinkFailure. With a nil
	// Net the delivery path is skipped entirely; with a Net that injects
	// nothing the run is bit-identical to one without a Net.
	Net NetInjector
	// Transport tunes reliable delivery when Net is set; the zero value
	// means defaults.
	Transport TransportOptions
}

// RunChecked executes f on p ranks like Run, but returns the world's
// failure instead of panicking with it: the error is a *RankFailure,
// *MismatchError, *AbandonedError, or *StallError describing the first
// thing that went wrong. A rank fails by panicking or by returning a
// non-nil error. On failure the returned Stats still describes the partial
// run (the virtual clocks at the time the world was torn down), which is
// how recovery campaigns price failure detection.
func RunChecked(p int, model CostModel, f func(c *Comm) error) (*Stats, error) {
	return RunCheckedOpts(p, model, CheckedOptions{}, f)
}

// RunCheckedOpts is RunChecked with explicit options.
func RunCheckedOpts(p int, model CostModel, opts CheckedOptions, f func(c *Comm) error) (*Stats, error) {
	if p < 1 {
		return nil, &UsageError{Op: "run", Msg: fmt.Sprintf("RunChecked with p=%d", p)}
	}
	w := newWorld(p, model, opts, nil)

	stall := opts.StallTimeout
	if stall == 0 {
		stall = DefaultStallTimeout
	}

	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			defer wg.Done()
			w.runRank(rank, f)
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if stall > 0 {
		go w.watchdog(stall, stopWatch)
	}

	select {
	case <-done:
	case <-w.failCh:
		// The world is failing; survivors unwind through the poisoned
		// barrier almost instantly, but a rank blocked outside the runtime
		// (in its own channel op, or deep in real local computation)
		// cannot be unwound. Give the world a grace period, then abandon
		// it: the stuck goroutines leak, and the Stats — still being
		// written by the leaked ranks — are not safe to return.
		grace := stall
		if grace <= 0 {
			grace = time.Second
		}
		select {
		case <-done:
		case <-time.After(grace):
			return nil, w.takeFailure()
		}
	}
	return newStats(w), w.takeFailure()
}

func (w *World) takeFailure() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failure
}

// rankFailure builds the RankFailure for a panic value or returned error,
// annotated with the rank's last collective and phase. It runs on the
// failing rank's own goroutine, so reading that rank's entries of the
// barrier-ordered arrays is safe.
func (w *World) rankFailure(rank int, rec any) *RankFailure {
	err, ok := rec.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", rec)
	}
	return &RankFailure{
		Rank:       rank,
		Op:         w.sigs[rank].op,
		Phase:      w.phases[rank],
		Collective: w.seqs[rank] - 1,
		Err:        err,
	}
}

// depart marks a rank as returned and lets the barrier detect stranded
// waiters (a collective that can now never complete).
func (w *World) depart(rank int) {
	w.statusMu.Lock()
	w.status[rank].done = true
	w.statusMu.Unlock()
	w.transport.Depart(rank)
}

// abandonedError builds the error for a collective abandoned by departed
// ranks. When the waiter is known (it detected the condition itself on
// entry), its own signature names the op; otherwise the statuses of the
// still-running ranks identify a victim.
func (w *World) abandonedError(waiter int, departed []int) error {
	e := &AbandonedError{Waiter: waiter, Departed: departed}
	if waiter >= 0 {
		e.Op = w.sigs[waiter].op
		return e
	}
	gone := map[int]bool{}
	for _, r := range departed {
		gone[r] = true
	}
	w.statusMu.Lock()
	defer w.statusMu.Unlock()
	for r, st := range w.status {
		if !st.done && !gone[r] {
			e.Waiter, e.Op = r, st.op
			return e
		}
	}
	return e
}

// watchdog fails the world when no collective progress happens for the
// stall threshold while ranks are still running. Progress is the triple
// (barrier generation, collectives entered, ranks done); pure local
// computation is invisible to it, which is the point — in this runtime
// local computation takes virtual time but almost no real time, so real
// wall-clock silence means the world is wedged.
func (w *World) watchdog(stall time.Duration, stop <-chan struct{}) {
	interval := stall / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lastGen, lastSeq, lastDone := w.progress()
	//lint:ignore nondeterminism the stall watchdog measures real wall-clock silence by design; it only decides failure detection and never feeds modeled costs
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-w.failCh:
			return
		case <-ticker.C:
			gen, seq, done := w.progress()
			if done == w.p {
				return
			}
			if gen != lastGen || seq != lastSeq || done != lastDone {
				lastGen, lastSeq, lastDone = gen, seq, done
				//lint:ignore nondeterminism watchdog progress timestamps are wall-clock by design and never feed modeled costs
				lastChange = time.Now()
				continue
			}
			//lint:ignore nondeterminism the stall threshold compares real elapsed time; it gates failure detection only
			if time.Since(lastChange) >= stall {
				w.fail(&StallError{Stall: stall, Stuck: w.stuckRanks()})
				return
			}
		}
	}
}

func (w *World) progress() (gen uint64, seqSum int, done int) {
	gen = w.transport.Generation()
	w.statusMu.Lock()
	for _, st := range w.status {
		seqSum += st.seq
		if st.done {
			done++
		}
	}
	w.statusMu.Unlock()
	return gen, seqSum, done
}

func (w *World) stuckRanks() []RankStatus {
	w.statusMu.Lock()
	defer w.statusMu.Unlock()
	var out []RankStatus
	for r, st := range w.status {
		if st.done {
			continue
		}
		out = append(out, RankStatus{Rank: r, Op: st.op, Phase: st.phase, Collective: st.seq - 1})
	}
	return out
}
