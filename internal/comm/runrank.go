package comm

import "fmt"

// RunRank executes f as ONE rank of a p-rank world whose other ranks live
// in other OS processes, reached through the given wire transport. It is
// the per-process entry point of a real deployment: each optipartd worker
// calls RunRank with its own rank id, and the transport (internal/net)
// carries every collective between the processes.
//
// The world has the same structured-failure surface as RunChecked, but no
// stall watchdog: across real processes the transport's deadlines and
// heartbeats are the failure detector, and wall-clock silence is expected
// whenever a peer is slow. A failure detected by the transport (dead peer,
// exhausted reconnect budget) surfaces as the returned error exactly as a
// local rank panic would.
func RunRank(rank, p int, model CostModel, t Transport, opts CheckedOptions, f func(c *Comm) error) (*Stats, error) {
	if p < 1 || rank < 0 || rank >= p {
		return nil, &UsageError{Op: "run", Msg: fmt.Sprintf("RunRank with rank=%d p=%d", rank, p)}
	}
	w := newWorld(p, model, opts, t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.runRank(rank, f)
	}()
	<-done
	return newStats(w), w.takeFailure()
}
