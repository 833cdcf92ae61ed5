package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"optipart"
)

// driverMain demos the selected failure policy: degrade is the
// recovery-by-repartition two-phase demo, restore is the self-healing
// supervised campaign.
func driverMain(pr program, p int, kill, sockDir string, deadline time.Duration, calibrate bool, policy optipart.FailurePolicy, ckptDir string) error {
	if policy == optipart.Restore {
		return restoreDriver(pr, p, kill, sockDir, deadline, calibrate, ckptDir)
	}
	if p < 3 {
		return fmt.Errorf("-launch needs -p >= 3: one root, one victim, and at least one survivor worker")
	}
	l, cleanup, err := newLauncher(pr, p, kill, sockDir)
	if err != nil {
		return err
	}
	defer cleanup()

	// Phase 1: the full world, with the victim scheduled to genuinely die.
	fmt.Printf("phase 1: %d ranks, victim rank %d exits at its collective %d\n", p, l.victim, l.at)
	ep1 := l.endpoint("phase1")
	var procs []*exec.Cmd
	_, _, err = runRoot(rootRun{pr: pr, endpoint: ep1, p: p, calibrate: calibrate, spawned: func() {
		for r := 1; r < p; r++ {
			cmd := l.worker(ep1, r, p, l.hardkillFor(r))
			if serr := cmd.Start(); serr != nil && err == nil {
				err = serr
			}
			procs = append(procs, cmd)
		}
	}})
	for _, cmd := range procs {
		_ = cmd.Wait() // phase 1 workers die with the world; codes logged on stderr
	}
	if err == nil {
		return fmt.Errorf("phase 1 completed despite the scheduled death of rank %d", l.victim)
	}
	var se *optipart.ShutdownError
	if errors.As(err, &se) {
		fmt.Printf("driver: interrupted during phase 1; workers reaped\n")
		return nil
	}
	var rf *optipart.RankFailure
	if !errors.As(err, &rf) {
		return fmt.Errorf("phase 1 failed without a structured RankFailure: %w", err)
	}
	if rf.Rank != l.victim {
		return fmt.Errorf("phase 1 blamed rank %d, want victim %d: %w", rf.Rank, l.victim, err)
	}
	fmt.Printf("phase 1: structured failure as expected: %v\n", err)

	// Phase 2: repartition the same workload onto the survivors.
	survivors := p - 1
	fmt.Printf("phase 2: repartitioning onto %d survivors (deadline %v)\n", survivors, deadline)
	start := time.Now()
	timer := guard(deadline, "recovery")
	ep2 := l.endpoint("phase2")
	procs = procs[:0]
	var spawnErr error
	st, out, err := runRoot(rootRun{pr: pr, endpoint: ep2, p: survivors, spawned: func() {
		for r := 1; r < survivors; r++ {
			cmd := l.worker(ep2, r, survivors, -1)
			if serr := cmd.Start(); serr != nil && spawnErr == nil {
				spawnErr = serr
			}
			procs = append(procs, cmd)
		}
	}})
	timer.Stop()
	for _, cmd := range procs {
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("phase 2 worker: %w", werr)
		}
	}
	if spawnErr != nil {
		return spawnErr
	}
	if err != nil {
		if errors.As(err, &se) {
			fmt.Printf("driver: interrupted during phase 2; workers reaped\n")
			return nil
		}
		return fmt.Errorf("recovery failed: %w", err)
	}
	fmt.Printf("phase 2: recovery on %d survivors completed in %v\n",
		survivors, time.Since(start).Round(time.Millisecond))
	fmt.Println()
	pr.report(os.Stdout, survivors, st, out)
	return nil
}

// restoreDriver is the self-healing demo: one checkpointed campaign world,
// a victim scheduled to genuinely die mid-flight, a supervisor that
// respawns it under a backoff budget, and a final digest that must match a
// fault-free in-process run bit for bit.
func restoreDriver(pr program, p int, kill, sockDir string, deadline time.Duration, calibrate bool, ckptDir string) error {
	if p < 2 {
		return fmt.Errorf("-launch -on-failure=restore needs -p >= 2: one root and at least one worker")
	}
	if pr.steps < 1 {
		return fmt.Errorf("-on-failure=restore needs a checkpointed campaign: pass -steps >= 1")
	}
	l, cleanup, err := newLauncher(pr, p, kill, sockDir)
	if err != nil {
		return err
	}
	defer cleanup()
	if ckptDir == "" {
		ckptDir = filepath.Join(l.sockDir, "ckpt")
	}

	// The fault-free golden digest, computed in-process under the same
	// machine model: the self-healed wire campaign must reproduce it.
	m, _, _, _, err := pr.parse()
	if err != nil {
		return err
	}
	var golden outcome
	body, err := pr.rankBody(p, fresh(), &golden)
	if err != nil {
		return err
	}
	if _, err := optipart.RunChecked(p, m, body); err != nil {
		return fmt.Errorf("fault-free golden campaign: %w", err)
	}

	fmt.Printf("restore: %d ranks, %d steps, victim rank %d exits at its collective %d, policy restore\n",
		p, pr.steps, l.victim, l.at)
	ep := l.endpoint("restore")
	spawn := func(rank, hardkill int, inc uint64) *exec.Cmd {
		return l.worker(ep, rank, p, hardkill, "-ckpt", ckptDir, "-incarnation", strconv.FormatUint(inc, 10))
	}

	budget := &optipart.RespawnBudget{MaxRespawns: 3, Base: 100 * time.Millisecond, Max: 2 * time.Second}
	var done atomic.Bool
	var respawns atomic.Int64
	var reapMu sync.Mutex
	live := map[int]*exec.Cmd{}
	var wg sync.WaitGroup

	// watch supervises one worker process: it reaps the exit and, while the
	// campaign is still running, respawns the rank as the next incarnation
	// under the backoff budget.
	var watch func(rank int, cmd *exec.Cmd, inc uint64)
	watch = func(rank int, cmd *exec.Cmd, inc uint64) {
		defer wg.Done()
		werr := cmd.Wait()
		reapMu.Lock()
		if live[rank] == cmd {
			delete(live, rank)
		}
		reapMu.Unlock()
		if werr == nil || done.Load() || stopping.Load() {
			return
		}
		status := -1
		var ee *exec.ExitError
		if errors.As(werr, &ee) {
			status = ee.ExitCode()
		}
		delay, ok := budget.Next(rank, time.Now())
		if !ok {
			fmt.Fprintf(os.Stderr, "supervisor: rank %d exhausted its respawn budget; leaving it down\n", rank)
			return
		}
		next := inc + 1
		fmt.Fprintf(os.Stderr, "supervisor: rank %d exited with status %d; respawning as incarnation %d in %v\n",
			rank, status, next, delay)
		time.Sleep(delay)
		if done.Load() || stopping.Load() {
			return
		}
		c2 := spawn(rank, -1, next)
		if err := c2.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "supervisor: respawn rank %d: %v\n", rank, err)
			return
		}
		respawns.Add(1)
		fmt.Printf("supervisor: respawned rank %d (incarnation %d)\n", rank, next)
		reapMu.Lock()
		live[rank] = c2
		reapMu.Unlock()
		wg.Add(1)
		go watch(rank, c2, next)
	}

	start := time.Now()
	timer := guard(deadline, "restore")
	var spawnErr error
	st, out, err := runRoot(rootRun{
		pr: pr, endpoint: ep, p: p, calibrate: calibrate, ckptDir: ckptDir,
		wopts: optipart.WireOptions{OnFailure: optipart.Restore},
		spawned: func() {
			for r := 1; r < p; r++ {
				cmd := spawn(r, l.hardkillFor(r), 0)
				if serr := cmd.Start(); serr != nil {
					if spawnErr == nil {
						spawnErr = serr
					}
					continue
				}
				reapMu.Lock()
				live[r] = cmd
				reapMu.Unlock()
				wg.Add(1)
				go watch(r, cmd, 0)
			}
		},
	})
	timer.Stop()
	done.Store(true)
	// Reap: anything still up is asked to drain, then every watcher joins.
	reapMu.Lock()
	for _, cmd := range live {
		if cmd.Process != nil {
			_ = cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	reapMu.Unlock()
	wg.Wait()
	if spawnErr != nil {
		return spawnErr
	}
	if err != nil {
		var se *optipart.ShutdownError
		if errors.As(err, &se) {
			fmt.Printf("driver: interrupted; workers drained and reaped\n")
			return nil
		}
		return fmt.Errorf("restore campaign failed: %w", err)
	}
	if respawns.Load() < 1 {
		return fmt.Errorf("restore campaign completed but the supervisor never respawned a worker (was the kill schedule reachable?)")
	}
	if out.digest != golden.digest {
		return fmt.Errorf("restored campaign digest %016x != fault-free golden %016x", out.digest, golden.digest)
	}
	fmt.Printf("restore: campaign completed in %v; digest matches fault-free golden (%016x)\n",
		time.Since(start).Round(time.Millisecond), out.digest)
	printRecovery(os.Stdout, st)
	return nil
}

// launcher is the scaffold both -launch drivers share: the binary they
// re-exec as workers, the socket directory their worlds rendezvous in, and
// the victim schedule.
type launcher struct {
	pr         program
	bin        string
	sockDir    string
	victim, at int
}

// newLauncher resolves the victim from -kill (a worker, since rank 0 is the
// driver process itself; default: the last rank, at its collective 3), this
// binary, and the socket directory; with none given it makes a temp dir
// that cleanup removes.
func newLauncher(pr program, p int, kill, sockDir string) (l *launcher, cleanup func(), err error) {
	l = &launcher{pr: pr, sockDir: sockDir, victim: p - 1, at: 3}
	if kill != "" {
		if l.victim, l.at, err = parseKill(kill, 1, p); err != nil {
			return nil, nil, err
		}
	}
	if l.bin, err = os.Executable(); err != nil {
		return nil, nil, err
	}
	if l.sockDir != "" {
		return l, func() {}, nil
	}
	if l.sockDir, err = os.MkdirTemp("", "optipartd"); err != nil {
		return nil, nil, err
	}
	return l, func() { os.RemoveAll(l.sockDir) }, nil
}

// endpoint names a rendezvous socket in the launcher's directory.
func (l *launcher) endpoint(name string) string {
	return "unix:" + filepath.Join(l.sockDir, name+".sock")
}

// hardkillFor is the collective at which rank must die: the victim's
// schedule, or -1 for every other rank.
func (l *launcher) hardkillFor(rank int) int {
	if rank == l.victim {
		return l.at
	}
	return -1
}

// worker builds the command for one worker process: rank of a p-rank world
// at ep, running the forwarded program, exiting at its hardkill-th
// collective when hardkill >= 0, with any extra flags. It is the one place
// optipartd spawns a process.
func (l *launcher) worker(ep string, rank, p, hardkill int, extra ...string) *exec.Cmd {
	args := []string{"-connect", ep, "-rank", strconv.Itoa(rank), "-p", strconv.Itoa(p)}
	args = append(args, l.pr.forward()...)
	if hardkill >= 0 {
		args = append(args, "-hardkill", strconv.Itoa(hardkill))
	}
	cmd := exec.Command(l.bin, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	return cmd
}

// guard exits the process when what has not completed within deadline: a
// hang in a demo is a failure, not a stuck terminal. Stop the timer on
// completion.
func guard(deadline time.Duration, what string) *time.Timer {
	return time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "error: %s did not complete within %v\n", what, deadline)
		os.Exit(1)
	})
}
