// Command optipartd runs one rank of a real multi-process optipart world:
// every rank is an OS process, collectives travel over unix or TCP sockets
// (length-prefixed checksummed frames, reconnect with backoff, heartbeat
// failure detection), and a dead process surfaces to the survivors as a
// structured *optipart.RankFailure instead of a hang.
//
// Four modes:
//
//	optipartd -listen unix:/tmp/opt.sock -p 4         # root: hosts rank 0
//	optipartd -connect unix:/tmp/opt.sock -rank 2 -p 4 # worker: one rank
//	optipartd -launch -p 4 -kill 2@3                   # driver: full demo
//	optipartd -serve unix:/tmp/svc.sock -slots 2       # partition service
//
// Every endpoint is unix:/path.sock or tcp:host:port, parsed by one
// grammar; tcp::port binds or dials loopback, never every interface.
//
// -serve runs the long-lived partitioning service (see internal/service):
// clients connect and exchange gob WireRequest/WireResponse pairs; the
// service canonicalizes and content-hashes each octree, serves repeats from
// its cache, coalesces concurrent identical requests, and admits misses to
// -slots execution slots in arrival order. SIGTERM/SIGINT drains it: idle
// connections close and in-flight requests finish.
//
// The driver demos both failure policies. Under -on-failure=degrade (the
// default) phase 1 hard-kills the victim mid-campaign, which must surface
// as a *RankFailure naming it, and phase 2 repartitions the same workload
// onto the p-1 survivors within -deadline. Under -on-failure=restore the
// world instead self-heals: rank 0 runs a checkpointed multi-step campaign
// (-steps), snapshotting the settled placement to -ckpt each step; a
// supervisor watches the worker processes and respawns the dead one under a
// backoff budget; the replacement restores from the latest snapshot,
// rejoins with a higher incarnation number, is replayed the results it
// missed, and the campaign must finish with the exact digest of a
// fault-free run.
//
// -calibrate makes the root measure ts/tw over the live links and tc from
// a local memory sweep (optipart.CalibrateOptions) and announce the
// measured model in place of the machine table's constants. The measured
// model drives the world's BSP clocks; the partition's model-driven
// tolerance decisions keep using the -machine table on every rank, so all
// ranks decide identically.
//
// A worker receiving SIGTERM drains gracefully: it announces its departure
// to the root, closes the link, and exits 0. A root (or driver) receiving
// SIGTERM/SIGINT announces an orderly shutdown to every worker — they exit
// 0 on the structured *ShutdownError — and the driver reaps its children
// before exiting.
//
// main.go holds the flags and signal handling, rank.go the rank program
// every process runs (root and worker modes), launch.go the two -launch
// drivers, and serve.go the -serve daemon.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"optipart"
	"optipart/internal/stats"
)

func main() {
	var (
		listen    = flag.String("listen", "", "root mode: endpoint to bind (unix:/path.sock or tcp:host:port)")
		connect   = flag.String("connect", "", "worker mode: endpoint of the root")
		rank      = flag.Int("rank", 0, "worker mode: this process's rank (1 <= rank < p)")
		p         = flag.Int("p", 4, "number of ranks in the world")
		launch    = flag.Bool("launch", false, "driver mode: host rank 0, spawn p-1 local workers, kill one, recover")
		kill      = flag.String("kill", "", "driver mode: victim as rank@k — rank exits at its k-th collective (default last rank@3)")
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

		n        = flag.Int("n", 100000, "total number of elements across all ranks")
		seed     = flag.Int64("seed", 1, "RNG seed (rank r draws from seed+r)")
		machine  = flag.String("machine", "Clemson-32", "machine model: Titan, Stampede, Clemson-32, Wisconsin-8")
		curveArg = flag.String("curve", "hilbert", "space-filling curve: morton or hilbert")
		mode     = flag.String("mode", "optipart", "partitioning mode: equal, flexible, optipart")
		tol      = flag.Float64("tol", 0.3, "tolerance for -mode flexible")
		dist     = flag.String("dist", "normal", "element distribution: uniform, normal, lognormal")
		alpha    = flag.Float64("alpha", optipart.DefaultAlpha, "memory accesses per unit work (application model)")
	)
	flag.Parse()

	pr := program{
		n: *n, seed: *seed, machineName: *machine, curveName: *curveArg,
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
	policy, err := optipart.ParseFailurePolicy(*onFailure)
	if err != nil {
		fatal(err)
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
		err = errors.New("pick a mode: -serve, -launch, -listen, or -connect (see -help)")
	}
	if err != nil {
		fatal(err)
	}
}

// activeRoot is the live wire root of this process (root and driver modes),
// so the signal handler can announce an orderly shutdown; stopping tells
// the supervisor the operator asked us to go down and deaths are expected.
var (
	activeRoot atomic.Pointer[optipart.WireRoot]
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

func printRecovery(st *optipart.Stats) {
	if st == nil || st.Recovery == nil {
		return
	}
	r := st.Recovery
	fmt.Printf("recovery: deaths=%d rejoins=%d redials=%d restored=%dB mttr=%v\n",
		r.Deaths, r.Rejoins, r.Redials, r.RestoredBytes, r.MTTR().Round(time.Millisecond))
}

func printResult(w *os.File, pr program, p int, st *optipart.Stats, res *optipart.Result) {
	fmt.Fprintf(w, "machine %s | curve %s | mode %s | %d elements on %d ranks\n\n",
		pr.machineName, strings.ToLower(pr.curveName), strings.ToLower(pr.modeName), pr.n, p)
	table := stats.NewTable("partition quality", "metric", "value")
	table.Add("modeled partition time (s)", st.Time())
	table.Add("refinement rounds", res.Rounds)
	table.Add("Wmax", res.Quality.Wmax)
	table.Add("load imbalance λ", res.Quality.LoadImbalance())
	table.Add("Cmax (boundary octants)", res.Quality.Cmax)
	table.Add("predicted app step (s), Eq. (3)", res.Predicted)
	table.Fprint(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
