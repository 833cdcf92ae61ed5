package net

// Recovery benchmarks: one iteration is a full two-rank world lifecycle with
// a hard worker kill mid-run. Degrade measures the detect latency (kill →
// structured failure on the root); Restore measures the measured MTTR (death
// declared → replacement rejoined). Run them by hand with
//
//	go test -run '^$' -bench Recovery ./internal/net
//
// They are recorded nowhere: the benchmark spine (benchmark/) has no fault
// workload. The socket round trip itself is the spine's
// net.allreduce_rtt_us against comm.allreduce_inproc_us on wire-small.

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"optipart/internal/comm"
)

func benchRecoveryOpts() Options {
	return Options{
		IOTimeout:         2 * time.Second,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
	}
}

// recoveryBody runs a fixed number of allreduce rounds — enough collectives
// for a kill at seq 3 to land mid-run with work left to recover.
func recoveryBody(rounds int) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		vals := []int64{int64(c.Rank())}
		for i := 0; i < rounds; i++ {
			comm.Allreduce(c, vals, 8, comm.SumI64)
		}
		return nil
	}
}

func BenchmarkRecoveryDegrade(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		opts := benchRecoveryOpts()
		ep := "unix:" + filepath.Join(b.TempDir(), "deg.sock")
		rt, err := NewRoot(ep, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		var killAt time.Time
		done := make(chan struct{})
		go func() {
			defer close(done)
			wk, err := Dial(ep, 1, 2, benchRecoveryOpts())
			if err != nil {
				return
			}
			defer wk.Close()
			ro := comm.CheckedOptions{Hooks: comm.Hooks{BeforeCollective: func(_ int, _ string, seq int) {
				if seq == 3 {
					killAt = time.Now()
					wk.Close()
					panic("bench kill")
				}
			}}}
			comm.RunRank(1, 2, wk.Model(), wk, ro, recoveryBody(64))
		}()
		if err := rt.WaitReady(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		rt.Announce(comm.CostModel{})
		if _, err := comm.RunRank(0, 2, comm.CostModel{}, rt, comm.CheckedOptions{}, recoveryBody(64)); err == nil {
			b.Fatal("degrade world completed despite worker kill")
		}
		<-done
		total += time.Since(killAt)
		rt.Close()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "detect-ns/op")
}

func BenchmarkRecoveryRestore(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		respawn := make(chan int, 1)
		opts := benchRecoveryOpts()
		opts.OnFailure = Restore
		opts.OnDeath = func(rank int) { respawn <- rank }
		ep := "unix:" + filepath.Join(b.TempDir(), "res.sock")
		rt, err := NewRoot(ep, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // replacement incarnation: resume from seq 0 (full replay)
			defer wg.Done()
			rank := <-respawn
			wk, err := DialResume(ep, rank, 2, 0, 1, benchRecoveryOpts())
			if err != nil {
				b.Error(err)
				return
			}
			defer wk.Close()
			if _, err := comm.RunRank(rank, 2, wk.Model(), wk, comm.CheckedOptions{}, recoveryBody(64)); err != nil {
				b.Error(err)
			}
		}()
		go func() { // first incarnation: dies at seq 3
			defer wg.Done()
			wk, err := Dial(ep, 1, 2, benchRecoveryOpts())
			if err != nil {
				b.Error(err)
				return
			}
			defer wk.Close()
			ro := comm.CheckedOptions{Hooks: comm.Hooks{BeforeCollective: func(_ int, _ string, seq int) {
				if seq == 3 {
					wk.Close()
					panic("bench kill")
				}
			}}}
			comm.RunRank(1, 2, wk.Model(), wk, ro, recoveryBody(64))
		}()
		if err := rt.WaitReady(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		rt.Announce(comm.CostModel{})
		if _, err := comm.RunRank(0, 2, comm.CostModel{}, rt, comm.CheckedOptions{}, recoveryBody(64)); err != nil {
			b.Fatal(err)
		}
		rt.Drain(5 * time.Second)
		wg.Wait()
		total += rt.Recovery().Downtime
		rt.Close()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "mttr-ns/op")
}
