package net

// The rejoin protocol: what turns failure detection into self-healing.
//
// Under Options.OnFailure == Restore, a dead worker does not fail the
// world. Instead the root opens a bounded rejoin window
// (DefaultRejoinWait): the rank's membership slot is marked awaiting, the
// supervisor is notified via OnDeath (it also watches process exits
// directly), and the in-flight Step blocks holding the collective open. A
// replacement process joins with a higher incarnation number in its hello —
// the fence that keeps a paused zombie of the old incarnation from
// split-braining the rank — plus a resume sequence taken from its
// checkpoint. The root replays every logged result frame at or after the
// resume sequence; the replacement re-executes its rank program from the
// checkpoint epoch, its deposits for already-completed steps are dropped
// by the existing seq dedup, and the replayed results carry it forward
// until it is depositing live. Checkpoint(seq) prunes the log: anything
// below seq is recoverable from stable storage and can never be requested
// again.

import (
	"fmt"
	"slices"
	"time"

	"optipart/internal/comm"
)

// ShutdownError is the structured error a world fails with when the root
// announces an orderly shutdown (SIGTERM/SIGINT on the root or driver): not
// a fault, but a request to stop. Workers receiving it exit cleanly rather
// than entering recovery.
type ShutdownError struct {
	Reason string
}

func (e *ShutdownError) Error() string {
	if e.Reason == "" {
		return "net: root announced shutdown"
	}
	return fmt.Sprintf("net: root announced shutdown: %s", e.Reason)
}

// JoinTimeout is the structured error WaitReady fails with when the
// rendezvous does not complete: it names exactly the ranks that never
// connected, so a launcher can report which processes to go look at.
type JoinTimeout struct {
	P       int
	Joined  int
	Missing []int
	Timeout time.Duration
}

func (e *JoinTimeout) Error() string {
	return fmt.Sprintf("net: %d of %d workers joined within %v; missing ranks %v",
		e.Joined, e.P-1, e.Timeout, e.Missing)
}

// deathEventLocked (r.mu held) converts a detected death — heartbeat expiry
// or a mid-campaign drain — into an awaiting-rejoin membership slot with a
// bounded window. Idempotent per outage: a rank already awaiting is left
// untouched.
func (r *Root) deathEventLocked(rank int) {
	r.done[rank] = false
	if r.awaitingRejoin[rank] || r.cancelled {
		return
	}
	r.awaitingRejoin[rank] = true
	r.deathAt[rank] = time.Now()
	r.rec.Deaths++
	rf := r.lostLocked(rank, fmt.Errorf("%w; no replacement within %v", ErrPeerDead, DefaultRejoinWait))
	r.rejoinTimer[rank] = time.AfterFunc(DefaultRejoinWait, func() {
		r.mu.Lock()
		expired := r.awaitingRejoin[rank]
		r.mu.Unlock()
		if expired {
			r.failWorld(rf)
		}
	})
	if cb := r.opts.OnDeath; cb != nil {
		go cb(rank)
	}
}

// completeRejoinLocked (r.mu held) closes a rank's rejoin window: the
// window timer is disarmed, the downtime is charged to the recovery stats,
// and the rank re-enters liveness tracking.
func (r *Root) completeRejoinLocked(rank int) {
	if r.awaitingRejoin[rank] {
		r.awaitingRejoin[rank] = false
		if t := r.rejoinTimer[rank]; t != nil {
			t.Stop()
			r.rejoinTimer[rank] = nil
		}
		r.rec.Rejoins++
		r.rec.Downtime += time.Since(r.deathAt[rank])
	}
	r.done[rank] = false
	r.mon.Revive(rank)
}

// loggedLocked (r.mu held) returns the encoded result frames with seq ≥
// from in ascending seq order — the replay stream for a (re)joining worker.
func (r *Root) loggedLocked(from uint64) [][]byte {
	if from == noSeq || len(r.resultLog) == 0 {
		return nil
	}
	var seqs []uint64
	for seq := range r.resultLog {
		if seq >= from {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	out := make([][]byte, len(seqs))
	for i, s := range seqs {
		out[i] = r.resultLog[s]
	}
	return out
}

// Checkpoint tells the root that campaign state through seq is recoverable
// from stable storage: a restored worker will resume at seq or later, so
// result frames below seq can never be requested again and are pruned from
// the replay log. The ckpt campaign calls this (on rank 0) after every
// durable snapshot.
func (r *Root) Checkpoint(seq uint64) {
	r.mu.Lock()
	for k := range r.resultLog {
		if k < seq {
			delete(r.resultLog, k)
		}
	}
	r.mu.Unlock()
}

// Recovery returns a copy of the self-healing accounting so far: deaths
// declared, rejoins completed, re-dials, replayed bytes, and summed
// death→rejoin downtime.
func (r *Root) Recovery() comm.RecoveryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// Shutdown announces an orderly world teardown: every connected worker
// receives an fShutdown frame (surfacing on its world as *ShutdownError, on
// which workers exit cleanly), and the root's own world fails with the same
// error. Use on SIGTERM/SIGINT so workers distinguish "the operator stopped
// us" from "the root died" — the latter would send them into reconnect
// backoff and a spurious LinkFailure.
func (r *Root) Shutdown(reason string) {
	r.failQuietly(&ShutdownError{Reason: reason}, func() {
		if frame, err := AppendFrame(nil, &Frame{Type: fShutdown, Payload: []byte(reason)}); err == nil {
			r.broadcast(frame)
		}
	})
}
