// Command optipartd runs the optipart rank program on a local world of
// in-process ranks, or as one rank of a real multi-process world: every
// rank an OS process, collectives over unix or TCP sockets (checksummed
// frames, reconnect with backoff, heartbeat failure detection), and a dead
// process surfacing to the survivors as a structured *comm.RankFailure
// instead of a hang.
//
// Five modes:
//
//	optipartd -p 8 -n 20000 -kill 3@5                  # local: p in-process ranks
//	optipartd -listen unix:/tmp/opt.sock -p 4         # root: hosts rank 0
//	optipartd -connect unix:/tmp/opt.sock -rank 2 -p 4 # worker: one rank
//	optipartd -launch -p 4 -kill 2@3                   # driver: full demo
//	optipartd -serve unix:/tmp/svc.sock -slots 2       # partition service
//
// With no wire mode flag the program runs locally and prints the partition
// quality (with -steps, the campaign digest). Only there, -straggler
// degrades a rank, -trace prints an ASCII timeline, and -workers sizes the
// shared worker pool.
//
// Every endpoint is unix:/path.sock or tcp:host:port, parsed by one
// grammar; tcp::port binds or dials loopback, never every interface.
//
// -serve runs the long-lived partitioning service (see internal/service):
// clients exchange gob WireRequest/WireResponse pairs; the service
// canonicalizes and content-hashes each octree, serves repeats from its
// cache, coalesces concurrent identical requests, and admits misses to
// -slots execution slots in arrival order. SIGTERM/SIGINT drains it.
//
// The driver demos both failure policies. Under -on-failure=degrade (the
// default) phase 1 hard-kills the victim mid-campaign, which must surface
// as a *RankFailure naming it, and phase 2 repartitions the same workload
// onto the p-1 survivors within -deadline. Under -on-failure=restore the
// world self-heals: rank 0 runs a checkpointed -steps campaign, saving
// each step to -ckpt; a supervisor respawns the dead worker under a
// backoff budget; the replacement restores from the latest snapshot,
// rejoins with a higher incarnation, is replayed the results it missed,
// and the campaign must finish with the exact digest of a fault-free run.
//
// -calibrate announces ts/tw measured over the live links and tc from a
// local memory sweep in place of the machine table's constants. They drive
// the BSP clocks only: model-driven tolerance decisions keep using the
// -machine table on every rank, so all ranks decide identically.
//
// On SIGTERM a worker announces its departure, closes the link and exits
// 0; a root or driver announces an orderly shutdown (workers exit 0 on the
// structured *ShutdownError) and the driver reaps its children.
//
// main.go holds the flags, the rank@k parser and signal handling, rank.go
// the rank program every mode runs and its result printer (with the root
// and worker modes), local.go the local mode, launch.go the two -launch
// drivers, and serve.go the -serve daemon.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"optipart/internal/fault"
	"optipart/internal/machine"
	wnet "optipart/internal/net"
	"optipart/internal/par"
)

func main() {
	var (
		listen    = flag.String("listen", "", "root mode: endpoint to bind (unix:/path.sock or tcp:host:port)")
		connect   = flag.String("connect", "", "worker mode: endpoint of the root")
		rank      = flag.Int("rank", 0, "worker mode: this process's rank (1 <= rank < p)")
		p         = flag.Int("p", 4, "number of ranks in the world")
		launch    = flag.Bool("launch", false, "driver mode: host rank 0, spawn p-1 local workers, kill one, recover")
		kill      = flag.String("kill", "", "local and driver mode: kill rank@k at its k-th collective (driver: a worker process, default last rank@3; local: in process, no default)")
		deadline  = flag.Duration("deadline", 60*time.Second, "driver mode: recovery phase must complete within this budget")
		socket    = flag.String("socket", "", "driver mode: directory for the rendezvous sockets (default: a temp dir)")
		calibrate = flag.Bool("calibrate", false, "root/driver mode: measure ts/tw/tc over the live transport and announce the measured model")
		hardkill  = flag.Int("hardkill", -1, "worker mode: exit(43) at this rank's k-th collective (fault injection; -1 = never)")

		serve     = flag.String("serve", "", "service mode: endpoint to serve partition requests on (unix:/path.sock or tcp:host:port)")
		slots     = flag.Int("slots", 2, "service mode: concurrent partition computations admitted")
		cacheKeys = flag.Int("cache-keys", 0, "service mode: cache bound in total canonical keys (0 = default 4Mi)")

		onFailure   = flag.String("on-failure", "degrade", "root/driver mode: worker-death policy: degrade (fail over to survivors) or restore (respawn + rejoin from checkpoint)")
		steps       = flag.Int("steps", 0, "campaign mode: refinement steps (0 = the classic single-partition body)")
		ckptDir     = flag.String("ckpt", "", "campaign mode: directory for checkpoint snapshots (driver default: <socket dir>/ckpt)")
		incarnation = flag.Uint64("incarnation", 0, "worker mode: incarnation number of a respawned worker (0 = fresh; >0 restores from -ckpt)")

		n          = flag.Int("n", 100000, "total number of elements across all ranks")
		seed       = flag.Int64("seed", 1, "RNG seed (rank r draws from seed+r)")
		machineArg = flag.String("machine", "Clemson-32", "machine model: Titan, Stampede, Clemson-32, Wisconsin-8")
		curveArg   = flag.String("curve", "hilbert", "space-filling curve: morton or hilbert")
		mode       = flag.String("mode", "optipart", "partitioning mode: equal, flexible, optipart")
		tol        = flag.Float64("tol", 0.3, "tolerance for -mode flexible")
		dist       = flag.String("dist", "normal", "element distribution: uniform, normal, lognormal")
		alpha      = flag.Float64("alpha", machine.DefaultAlpha, "memory accesses per unit work (application model)")

		strag   = flag.String("straggler", "", "local mode: degrade a rank, as rank@tcmult[,twmult]")
		trace   = flag.Bool("trace", false, "local mode: print an ASCII timeline of the run (compute vs collective per rank)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "local mode: worker-pool width shared by all ranks (1 forces the serial paths; results are identical at every width)")
	)
	flag.Parse()

	pr := program{
		n: *n, seed: *seed, machineName: *machineArg, curveName: *curveArg,
		modeName: *mode, distName: *dist, tol: *tol, alpha: *alpha,
		steps: *steps,
	}
	if _, _, _, _, err := pr.parse(); err != nil {
		fatal(err)
	}
	if *p < 1 {
		fatal(fmt.Errorf("-p %d: need at least one rank", *p))
	}
	if *slots < 1 {
		fatal(fmt.Errorf("-slots %d: the service needs at least one computation slot", *slots))
	}
	if *cacheKeys < 0 {
		fatal(fmt.Errorf("-cache-keys %d: the cache bound cannot be negative (0 means the default)", *cacheKeys))
	}
	if *steps < 0 {
		fatal(fmt.Errorf("-steps %d: refinement steps cannot be negative (0 means the classic single-partition body)", *steps))
	}
	if err := validateWorkers(*workers); err != nil {
		fatal(err)
	}
	policy, err := wnet.ParsePolicy(*onFailure)
	if err != nil {
		fatal(err)
	}
	if *serve != "" || *launch || *listen != "" || *connect != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "straggler", "trace", "workers":
				fatal(fmt.Errorf("-%s runs only in local mode (no -serve, -launch, -listen or -connect)", f.Name))
			}
		})
	} else {
		par.SetWorkers(*workers)
	}

	switch {
	case *serve != "":
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
		err = serveMain(*serve, *slots, *cacheKeys, stop)
	case *launch:
		installRootSignals()
		err = driverMain(pr, *p, *kill, *socket, *deadline, *calibrate, policy, *ckptDir)
	case *listen != "":
		installRootSignals()
		err = rootMain(pr, *listen, *p, *calibrate, policy, *ckptDir)
	case *connect != "":
		err = workerMain(pr, *connect, *rank, *p, *hardkill, *ckptDir, *incarnation)
	default:
		var plan *fault.Plan
		if plan, err = buildPlan(*p, *kill, *strag); err == nil {
			err = runLocal(os.Stdout, pr, *p, plan, *trace)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// activeRoot is the live wire root of this process (root and driver modes),
// so the signal handler can announce an orderly shutdown; stopping tells
// the supervisor the operator asked us to go down and deaths are expected.
var (
	activeRoot atomic.Pointer[wnet.Root]
	stopping   atomic.Bool
)

// installRootSignals makes SIGTERM/SIGINT announce shutdown to the workers
// (they exit 0 on the structured *ShutdownError) instead of vanishing and
// sending every worker into reconnect backoff.
func installRootSignals() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		stopping.Store(true)
		fmt.Fprintf(os.Stderr, "optipartd: %v: announcing shutdown to workers\n", sig)
		if rt := activeRoot.Load(); rt != nil {
			rt.Shutdown(fmt.Sprintf("operator sent %v", sig))
		} else {
			os.Exit(130)
		}
	}()
}

// parseRankAt parses the rank@value form -kill and -straggler share,
// range-checking the rank against [lo,p) so a typo fails with a usable
// message before any rank starts. what names the value in the error.
func parseRankAt(name, s, what string, lo, p int) (rank int, value string, err error) {
	r, value, ok := strings.Cut(s, "@")
	if !ok {
		return 0, "", fmt.Errorf("-%s %q: want rank@%s", name, s, what)
	}
	if rank, err = strconv.Atoi(r); err != nil {
		return 0, "", fmt.Errorf("-%s %q: bad rank: %w", name, s, err)
	}
	if rank < lo || rank >= p {
		return 0, "", fmt.Errorf("-%s %q: rank %d out of range [%d,%d)", name, s, rank, lo, p)
	}
	return rank, value, nil
}

// parseKill parses -kill rank@k against the ranks [lo,p) that can die: lo
// is 1 under -launch, where rank 0 is the driver process itself, and 0 on
// a local world.
func parseKill(s string, lo, p int) (rank, at int, err error) {
	rank, k, err := parseRankAt("kill", s, "k", lo, p)
	if err != nil {
		return 0, 0, err
	}
	if at, err = strconv.Atoi(k); err != nil {
		return 0, 0, fmt.Errorf("-kill %q: bad collective index: %w", s, err)
	}
	if at < 0 {
		return 0, 0, fmt.Errorf("-kill %q: collective index must be >= 0", s)
	}
	return rank, at, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
