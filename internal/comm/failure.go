package comm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// This file defines the structured error vocabulary of the runtime. Real
// MPI programs are not allowed to hang when one rank dies or misbehaves;
// neither is a world. Every way a run can go wrong maps to one of these
// types, returned by RunChecked/RunCheckedOpts/RunRank and re-panicked on
// the caller's goroutine by Run:
//
//   - RankFailure: a rank panicked or returned an error. The world is
//     poisoned so every survivor unblocks instead of waiting forever.
//   - MismatchError: ranks called different collectives (or the same
//     collective with different element sizes) at the same step — the
//     classic silent-deadlock bug, reported with who called what.
//   - AbandonedError: a rank returned while others still wait in a
//     collective, so the collective can never complete.
//   - StallError: the watchdog saw no collective progress for the stall
//     threshold; it reports each stuck rank's last op and phase.
//   - UsageError: an API misuse (mismatched Allreduce lengths, p < 1).

// RankFailure reports that one rank terminated the world: it panicked, or
// its body function returned a non-nil error. Op and Collective identify
// the last collective the rank entered ("" / -1 if it never reached one),
// Phase its phase label at the time of failure.
type RankFailure struct {
	Rank       int
	Op         string // last collective entered by the rank
	Phase      string // rank's phase label when it failed
	Collective int    // 0-based index of the rank's last collective, -1 if none
	Err        error  // recovered panic value or the returned error
}

func (f *RankFailure) Error() string {
	where := "before its first collective"
	if f.Op != "" {
		where = fmt.Sprintf("at collective %d (%s)", f.Collective, f.Op)
	}
	return fmt.Sprintf("comm: rank %d failed in phase %q %s: %v", f.Rank, f.Phase, where, f.Err)
}

func (f *RankFailure) Unwrap() error { return f.Err }

// SigCall is one rank's contribution to a mismatched collective step.
type SigCall struct {
	Rank      int
	Op        string
	ElemBytes int
}

// MismatchError reports ranks calling different collectives at the same
// synchronization step. Under MPI this class of bug deadlocks silently; here
// it names which ranks called which op.
type MismatchError struct {
	Step  int       // 0-based collective index at which the mismatch surfaced
	Calls []SigCall // one entry per rank, in rank order
}

func (e *MismatchError) Error() string {
	// Group ranks by (op, elemBytes) so the message reads
	// "ranks 0,2 called allreduce(8B); rank 1 called allgather(8B)".
	byOp := map[string][]int{}
	for _, c := range e.Calls {
		k := fmt.Sprintf("%s(%dB)", c.Op, c.ElemBytes)
		byOp[k] = append(byOp[k], c.Rank)
	}
	keys := make([]string, 0, len(byOp))
	for k := range byOp {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int { return cmp.Compare(byOp[a][0], byOp[b][0]) })
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		ranks := byOp[k]
		noun := "ranks"
		if len(ranks) == 1 {
			noun = "rank"
		}
		rs := make([]string, len(ranks))
		for i, r := range ranks {
			rs[i] = fmt.Sprint(r)
		}
		parts = append(parts, fmt.Sprintf("%s %s called %s", noun, strings.Join(rs, ","), k))
	}
	return fmt.Sprintf("comm: collective mismatch at step %d: %s", e.Step, strings.Join(parts, "; "))
}

// AbandonedError reports a collective that can never complete because a
// rank returned from its body while others were still waiting — mismatched
// collective counts across ranks.
type AbandonedError struct {
	Waiter   int    // a rank stuck in the abandoned collective
	Op       string // the collective the waiter is stuck in
	Departed []int  // ranks that already returned
}

func (e *AbandonedError) Error() string {
	ds := make([]string, len(e.Departed))
	for i, r := range e.Departed {
		ds[i] = fmt.Sprint(r)
	}
	who := "a rank waits in a collective"
	if e.Waiter >= 0 {
		who = fmt.Sprintf("rank %d waits in %s", e.Waiter, e.Op)
	}
	return fmt.Sprintf("comm: %s but rank(s) %s already returned: mismatched collective counts",
		who, strings.Join(ds, ","))
}

// RankStatus is one rank's last observed position, as reported by the
// watchdog: the last collective it entered and its phase label there.
type RankStatus struct {
	Rank       int
	Op         string // last collective entered ("" if none yet)
	Phase      string
	Collective int // 0-based index of that collective, -1 if none
}

func (s RankStatus) String() string {
	if s.Op == "" {
		return fmt.Sprintf("rank %d: no collective yet (phase %q)", s.Rank, s.Phase)
	}
	return fmt.Sprintf("rank %d: collective %d (%s) in phase %q", s.Rank, s.Collective, s.Op, s.Phase)
}

// StallError reports that the world made no collective progress for the
// watchdog's stall threshold. Stuck lists every rank that had not yet
// returned, with its last op and phase.
type StallError struct {
	Stall time.Duration
	Stuck []RankStatus
}

func (e *StallError) Error() string {
	parts := make([]string, len(e.Stuck))
	for i, s := range e.Stuck {
		parts[i] = s.String()
	}
	return fmt.Sprintf("comm: no progress for %v, %d rank(s) stuck: %s",
		e.Stall, len(e.Stuck), strings.Join(parts, "; "))
}

// LinkFailure reports that a wire worker lost its connection to the root
// and exhausted its reconnect budget: rank Src re-dialed rank Dst Attempts
// times without getting back in, so the link is declared dead and the world
// is torn down instead of redialing forever. This is the escalation point
// from a broken connection to machine fault: a campaign that catches a
// *LinkFailure treats the unreachable rank like a killed one — evict it
// and re-enter the recovery-by-repartition path (see the faults
// experiment) — rather than hanging on a wire that will never come back.
type LinkFailure struct {
	Src, Dst int
	Op       string // the last collective the worker entered
	Seq      uint64 // the collective sequence the worker was awaiting; all ones between collectives
	Attempts int    // redials attempted
	Cap      int    // the redial cap that was exhausted
}

func (e *LinkFailure) Error() string {
	return fmt.Sprintf("comm: link %d→%d dead: %s at collective seq %d, reconnect failed after %d redials (cap %d)",
		e.Src, e.Dst, e.Op, e.Seq, e.Attempts, e.Cap)
}

// UsageError is an API misuse detected inside the runtime: mismatched
// Allreduce lengths, a malformed Alltoallv send matrix, Run with p < 1.
// Raised inside a rank it reaches the caller as the cause of a
// *RankFailure; p < 1 is reported bare.
type UsageError struct {
	Op  string
	Msg string
}

func (e *UsageError) Error() string { return fmt.Sprintf("comm: %s: %s", e.Op, e.Msg) }

// worldAbort is the sentinel panic used to unwind survivor ranks out of a
// poisoned world. It is never reported: the primary failure was already
// recorded by whoever poisoned the barrier. It still implements error so
// every panic the runtime throws carries a typed, printable value.
type worldAbort struct{}

func (worldAbort) Error() string { return "comm: world aborted after a prior failure" }
