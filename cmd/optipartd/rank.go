package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"optipart/internal/ckpt"
	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/machine"
	wnet "optipart/internal/net"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
	"optipart/internal/stats"
)

// program is the rank program every process runs: the same flags must reach
// every rank, because the SPMD world requires identical collective
// sequences, so the driver forwards them verbatim to the workers it spawns.
type program struct {
	n                                          int
	seed                                       int64
	machineName, curveName, modeName, distName string
	tol, alpha                                 float64
	steps                                      int
}

func (pr program) parse() (machine.Machine, *sfc.Curve, partition.Mode, octree.Distribution, error) {
	m, errM := machine.ByName(pr.machineName)
	kind, errK := sfc.ParseKind(pr.curveName)
	pmode, errP := partition.ParseMode(pr.modeName)
	d, errD := octree.ParseDistribution(pr.distName)
	if err := cmp.Or(errM, errK, errP, errD); err != nil {
		return machine.Machine{}, nil, 0, 0, err
	}
	if pr.n < 1 {
		return machine.Machine{}, nil, 0, 0, fmt.Errorf("-n %d: need at least one element", pr.n)
	}
	return m, sfc.NewCurve(kind, 3), pmode, d, nil
}

// forward renders the program back into flags for a spawned worker.
func (pr program) forward() []string {
	return []string{
		"-n", strconv.Itoa(pr.n),
		"-seed", strconv.FormatInt(pr.seed, 10),
		"-machine", pr.machineName,
		"-curve", pr.curveName,
		"-mode", pr.modeName,
		"-dist", pr.distName,
		"-tol", strconv.FormatFloat(pr.tol, 'g', -1, 64),
		"-alpha", strconv.FormatFloat(pr.alpha, 'g', -1, 64),
		"-steps", strconv.Itoa(pr.steps),
	}
}

// outcome is what rank 0 of the program reports: the partition result of
// the single-partition body, or the final digest of the -steps campaign.
type outcome struct {
	res    *partition.Result
	digest uint64
}

// entry is where a rank enters the -steps campaign: at resume, its restart
// state, and, when store is non-nil, saving each checkpoint there and
// telling root once it is durable so the root can prune its replay log.
type entry struct {
	resume ckpt.Resume
	store  *ckpt.Store
	root   *wnet.Root
}

// fresh is the start of a brand-new campaign that saves no checkpoints.
func fresh() entry { return entry{resume: ckpt.Fresh()} }

// rankBody builds the rank function of the program for a p-rank world: the
// classic single partition or, with -steps, the campaign entered at e. It
// is the one rank body of every mode (local, root, worker, and the restore
// driver's golden). When out is non-nil, rank 0 reports into it.
func (pr program) rankBody(p int, e entry, out *outcome) (func(c *comm.Comm) error, error) {
	m, curve, pmode, d, err := pr.parse()
	if err != nil {
		return nil, err
	}
	perRank := pr.n / p
	if perRank < 1 {
		return nil, fmt.Errorf("-n %d spread over %d ranks leaves empty ranks", pr.n, p)
	}
	if pr.steps > 0 {
		copts := ckpt.CampaignOptions{
			Steps: pr.steps, PerRank: perRank, Seed: pr.seed,
			Kind: curve.Kind, Dim: 3,
			Mode: pmode, Tol: pr.tol, Machine: m, Alpha: pr.alpha,
			Dist: d, MinLevel: 2, MaxLevel: 18,
			Every: 1,
		}
		if e.store != nil {
			copts.Saver, copts.Checkpointer = e.store, e.root
		}
		return func(c *comm.Comm) error {
			r, err := ckpt.RunCampaign(c, e.resume, copts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && out != nil {
				out.digest = r.Digest
			}
			return nil
		}, nil
	}
	return func(c *comm.Comm) error {
		rng := rand.New(rand.NewSource(pr.seed + int64(c.Rank())))
		local := octree.RandomKeys(rng, perRank, 3, d, 2, 18)
		r := partition.Partition(c, local, partition.Options{
			Curve: curve, Mode: pmode, Tol: pr.tol, Machine: m, Alpha: pr.alpha,
		})
		if c.Rank() == 0 && out != nil {
			out.res = r
		}
		return nil
	}, nil
}

// header prints a run's first line from the parsed names (every mode parses
// the program before it runs), so -curve HILBERT and hilbert print alike.
func (pr program) header(w io.Writer, p int) {
	m, curve, pmode, _, _ := pr.parse()
	fmt.Fprintf(w, "machine %s | curve %v | mode %v | %d elements on %d ranks\n\n",
		m.Name, curve.Kind, pmode, pr.n, p)
}

// report is the one result printer of local and wire runs: the campaign's
// digest and recovery accounting, or the partition quality table.
func (pr program) report(w io.Writer, p int, st *comm.Stats, out outcome) {
	if pr.steps > 0 {
		fmt.Fprintf(w, "campaign: %d steps completed, digest %016x\n", pr.steps, out.digest)
		printRecovery(w, st)
		return
	}
	pr.header(w, p)
	res := out.res
	table := stats.NewTable("partition quality", "metric", "value")
	table.Add("modeled partition time (s)", st.Time())
	table.Add("refinement rounds", res.Rounds)
	table.Add("achieved tolerance", res.AchievedTol)
	table.Add("Wmax", res.Quality.Wmax)
	table.Add("Wmin", res.Quality.Wmin)
	table.Add("load imbalance λ", res.Quality.LoadImbalance())
	table.Add("Cmax (boundary octants)", res.Quality.Cmax)
	table.Add("total boundary octants", res.Quality.Ctot)
	table.Add("predicted app step (s), Eq. (3)", res.Predicted)
	table.Fprint(w)
}

// printRecovery prints the wire transport's recovery accounting, if any.
func printRecovery(w io.Writer, st *comm.Stats) {
	if st == nil || st.Recovery == nil {
		return
	}
	r := st.Recovery
	fmt.Fprintf(w, "recovery: deaths=%d rejoins=%d redials=%d restored=%dB mttr=%v\n",
		r.Deaths, r.Rejoins, r.Redials, r.RestoredBytes, r.MTTR().Round(time.Millisecond))
}

// workerMain runs one non-root rank: dial (or rejoin, when respawned with
// -incarnation), learn the model from the welcome, run the rank program,
// report how the world ended.
func workerMain(pr program, endpoint string, rank, p, hardkill int, ckptDir string, inc uint64) error {
	if rank < 1 || rank >= p {
		return fmt.Errorf("-rank %d out of range [1,%d) (rank 0 lives in the root process)", rank, p)
	}
	// Graceful drain: announce the departure so the root (and any rank
	// waiting in a collective) observes a structured exit, not silence.
	// Installed before the dial so a SIGTERM landing while the rendezvous
	// is still assembling (the dial blocks until the root's welcome) also
	// exits 0 instead of dying on the default disposition.
	var drainMu sync.Mutex
	var drainWk *wnet.Worker
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "optipartd: rank %d: SIGTERM, draining\n", rank)
		drainMu.Lock()
		if drainWk != nil {
			drainWk.Depart(rank)
			drainWk.Close()
		}
		drainMu.Unlock()
		os.Exit(0)
	}()

	resume := ckpt.Fresh()
	var resumeSeq uint64 = wnet.ResumeNone
	if pr.steps > 0 && inc > 0 {
		// Respawned incarnation: restore from the latest snapshot; with
		// none saved yet, replay the whole world from seq 0 (the root's
		// replay log is complete until its first Checkpoint prune).
		resumeSeq = 0
		if ckptDir != "" {
			store, err := ckpt.NewStore(ckptDir)
			if err != nil {
				return err
			}
			snap, err := store.Latest()
			if err != nil {
				return err
			}
			if snap != nil {
				if resume, err = ckpt.ResumeFrom(snap, rank); err != nil {
					return err
				}
				resumeSeq = snap.Seq
				fmt.Fprintf(os.Stderr, "optipartd: rank %d: incarnation %d restoring from epoch %d (seq %d)\n",
					rank, inc, snap.Epoch, snap.Seq)
			} else {
				fmt.Fprintf(os.Stderr, "optipartd: rank %d: incarnation %d found no snapshot; replaying from the start\n", rank, inc)
			}
		}
	}
	body, err := pr.rankBody(p, entry{resume: resume}, nil)
	if err != nil {
		return err
	}

	wk, err := wnet.DialResume(endpoint, rank, p, resumeSeq, inc, wnet.Options{})
	if err != nil {
		return err
	}
	defer wk.Close()
	drainMu.Lock()
	drainWk = wk
	drainMu.Unlock()

	var opts comm.CheckedOptions
	if hardkill >= 0 {
		opts.Hooks = fault.HardKill{Rank: rank, AtCollective: hardkill}.Hooks(nil)
	}
	if _, err := comm.RunRank(rank, p, wk.Model(), wk, opts, body); err != nil {
		var se *wnet.ShutdownError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "optipartd: rank %d: %v; exiting cleanly\n", rank, err)
			return nil
		}
		fmt.Fprintf(os.Stderr, "optipartd: rank %d: world failed: %v\n", rank, err)
		os.Exit(2)
	}
	return nil
}

// rootMain hosts rank 0 against externally launched workers.
func rootMain(pr program, endpoint string, p int, calibrate bool, policy wnet.Policy, ckptDir string) error {
	st, out, err := runRoot(rootRun{
		pr: pr, endpoint: endpoint, p: p, calibrate: calibrate,
		wopts: wnet.Options{OnFailure: policy}, ckptDir: ckptDir,
	})
	if err != nil {
		var se *wnet.ShutdownError
		if errors.As(err, &se) {
			fmt.Printf("root: shut down cleanly: %v\n", err)
			return nil
		}
		return err
	}
	pr.report(os.Stdout, p, st, out)
	return nil
}

// rootRun bundles runRoot's inputs.
type rootRun struct {
	pr        program
	endpoint  string
	p         int
	calibrate bool
	// spawned, when non-nil, runs after the socket exists (the driver hooks
	// its worker launches in here).
	spawned func()
	wopts   wnet.Options
	ckptDir string
}

// runRoot binds the root transport, invokes spawned, waits for the world to
// assemble, optionally calibrates, and runs rank 0 of the program (the
// classic body, or the checkpointed campaign when -steps > 0). The returned
// stats carry the transport's recovery accounting.
func runRoot(rr rootRun) (*comm.Stats, outcome, error) {
	m, _, _, _, err := rr.pr.parse()
	if err != nil {
		return nil, outcome{}, err
	}
	rt, err := wnet.NewRoot(rr.endpoint, rr.p, rr.wopts)
	if err != nil {
		return nil, outcome{}, err
	}
	defer rt.Close()
	activeRoot.Store(rt)
	defer activeRoot.Store(nil)
	if rr.spawned != nil {
		rr.spawned()
	}
	if err := rt.WaitReady(30 * time.Second); err != nil {
		return nil, outcome{}, err
	}
	model := m.CostModel()
	if rr.calibrate {
		measured, err := rt.Calibrate(wnet.CalibrateOptions{})
		if err != nil {
			return nil, outcome{}, err
		}
		fmt.Printf("calibrated: tc=%.3g ts=%.3g tw=%.3g (machine table: tc=%.3g ts=%.3g tw=%.3g)\n",
			measured.Tc, measured.Ts, measured.Tw, model.Tc, model.Ts, model.Tw)
		model = measured
	}
	rt.Announce(model)
	e := fresh()
	if rr.pr.steps > 0 && rr.ckptDir != "" {
		if e.store, err = ckpt.NewStore(rr.ckptDir); err != nil {
			return nil, outcome{}, err
		}
		e.root = rt
	}
	var out outcome
	body, err := rr.pr.rankBody(rr.p, e, &out)
	if err != nil {
		return nil, outcome{}, err
	}
	st, err := comm.RunRank(0, rr.p, model, rt, comm.CheckedOptions{}, body)
	if st != nil {
		rec := rt.Recovery()
		st.Recovery = &rec
	}
	if err != nil {
		return st, outcome{}, err
	}
	rt.Drain(5 * time.Second)
	return st, out, nil
}
