package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"optipart"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/sfc"
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

func (pr program) parse() (optipart.Machine, *optipart.Curve, optipart.Mode, optipart.Distribution, error) {
	var zero optipart.Machine
	m, err := machine.ByName(pr.machineName)
	if err != nil {
		return zero, nil, 0, 0, err
	}
	kind, err := sfc.ParseKind(pr.curveName)
	if err != nil {
		return zero, nil, 0, 0, err
	}
	pmode, err := partition.ParseMode(pr.modeName)
	if err != nil {
		return zero, nil, 0, 0, err
	}
	d, err := octree.ParseDistribution(pr.distName)
	if err != nil {
		return zero, nil, 0, 0, err
	}
	if pr.n < 1 {
		return zero, nil, 0, 0, fmt.Errorf("-n %d: need at least one element", pr.n)
	}
	return m, optipart.NewCurve(kind, 3), pmode, d, nil
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

// body builds the classic single-partition rank function for a p-rank
// world. When out is non-nil, rank 0 stores its partition result there.
func (pr program) body(p int, out **optipart.Result) (func(c *optipart.Comm) error, error) {
	m, curve, pmode, d, err := pr.parse()
	if err != nil {
		return nil, err
	}
	perRank := pr.n / p
	if perRank < 1 {
		return nil, fmt.Errorf("-n %d spread over %d ranks leaves empty ranks", pr.n, p)
	}
	return func(c *optipart.Comm) error {
		rng := rand.New(rand.NewSource(pr.seed + int64(c.Rank())))
		local := optipart.RandomKeys(rng, perRank, 3, d, 2, 18)
		r := optipart.Partition(c, local, optipart.Options{
			Curve: curve, Mode: pmode, Tol: pr.tol, Machine: m, Alpha: pr.alpha,
		})
		if c.Rank() == 0 && out != nil {
			*out = r
		}
		return nil
	}, nil
}

// campaignOpts renders the program into checkpointed-campaign options
// (Saver/Checkpointer are wired in by the caller that owns them).
func (pr program) campaignOpts(p int) (optipart.CampaignOptions, error) {
	m, curve, pmode, d, err := pr.parse()
	if err != nil {
		return optipart.CampaignOptions{}, err
	}
	perRank := pr.n / p
	if perRank < 1 {
		return optipart.CampaignOptions{}, fmt.Errorf("-n %d spread over %d ranks leaves empty ranks", pr.n, p)
	}
	return optipart.CampaignOptions{
		Steps: pr.steps, PerRank: perRank, Seed: pr.seed,
		Kind: curve.Kind, Dim: 3,
		Mode: pmode, Tol: pr.tol, Machine: m, Alpha: pr.alpha,
		Dist: d, MinLevel: 2, MaxLevel: 18,
		Every: 1,
	}, nil
}

// campaignBody wraps RunCampaign as a rank function; rank 0 reports the
// final digest through digestOut when non-nil.
func (pr program) campaignBody(copts optipart.CampaignOptions, res optipart.CampaignResume, digestOut *uint64) func(c *optipart.Comm) error {
	return func(c *optipart.Comm) error {
		out, err := optipart.RunCampaign(c, res, copts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && digestOut != nil {
			*digestOut = out.Digest
		}
		return nil
	}
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
	var drainWk *optipart.WireWorker
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

	var body func(c *optipart.Comm) error
	res := optipart.FreshCampaign()
	var resumeSeq uint64 = optipart.ResumeNone
	if pr.steps > 0 {
		copts, err := pr.campaignOpts(p)
		if err != nil {
			return err
		}
		if inc > 0 {
			// Respawned incarnation: restore from the latest snapshot; with
			// none saved yet, replay the whole world from seq 0 (the root's
			// replay log is complete until its first Checkpoint prune).
			resumeSeq = 0
			if ckptDir != "" {
				store, err := optipart.NewSnapshotStore(ckptDir)
				if err != nil {
					return err
				}
				snap, err := store.Latest()
				if err != nil {
					return err
				}
				if snap != nil {
					if res, err = optipart.ResumeCampaign(snap, rank); err != nil {
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
		body = pr.campaignBody(copts, res, nil)
	} else {
		var err error
		body, err = pr.body(p, nil)
		if err != nil {
			return err
		}
	}

	var wk *optipart.WireWorker
	var err error
	if inc > 0 {
		wk, err = optipart.DialRootResume(endpoint, rank, p, resumeSeq, inc, optipart.WireOptions{})
	} else {
		wk, err = optipart.DialRoot(endpoint, rank, p, optipart.WireOptions{})
	}
	if err != nil {
		return err
	}
	defer wk.Close()
	drainMu.Lock()
	drainWk = wk
	drainMu.Unlock()

	var opts optipart.CheckedOptions
	if hardkill >= 0 {
		opts.Hooks = optipart.HardKill{Rank: rank, AtCollective: hardkill}.Hooks(nil)
	}
	if _, err := optipart.RunRank(rank, p, wk.Model(), wk, opts, body); err != nil {
		var se *optipart.ShutdownError
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
func rootMain(pr program, endpoint string, p int, calibrate bool, policy optipart.FailurePolicy, ckptDir string) error {
	st, res, digest, err := runRoot(rootRun{
		pr: pr, endpoint: endpoint, p: p, calibrate: calibrate,
		wopts: optipart.WireOptions{OnFailure: policy}, ckptDir: ckptDir,
	})
	if err != nil {
		var se *optipart.ShutdownError
		if errors.As(err, &se) {
			fmt.Printf("root: shut down cleanly: %v\n", err)
			return nil
		}
		return err
	}
	if pr.steps > 0 {
		fmt.Printf("campaign: %d steps completed, digest %016x\n", pr.steps, digest)
		printRecovery(st)
		return nil
	}
	printResult(os.Stdout, pr, p, st, res)
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
	wopts   optipart.WireOptions
	ckptDir string
}

// runRoot binds the root transport, invokes spawned, waits for the world to
// assemble, optionally calibrates, and runs rank 0 of the program (the
// classic body, or the checkpointed campaign when -steps > 0). The returned
// stats carry the transport's recovery accounting.
func runRoot(rr rootRun) (*optipart.Stats, *optipart.Result, uint64, error) {
	m, _, _, _, err := rr.pr.parse()
	if err != nil {
		return nil, nil, 0, err
	}
	rt, err := optipart.ListenRoot(rr.endpoint, rr.p, rr.wopts)
	if err != nil {
		return nil, nil, 0, err
	}
	defer rt.Close()
	activeRoot.Store(rt)
	defer activeRoot.Store(nil)
	if rr.spawned != nil {
		rr.spawned()
	}
	if err := rt.WaitReady(30 * time.Second); err != nil {
		return nil, nil, 0, err
	}
	model := m.CostModel()
	if rr.calibrate {
		measured, err := rt.Calibrate(optipart.CalibrateOptions{})
		if err != nil {
			return nil, nil, 0, err
		}
		fmt.Printf("calibrated: tc=%.3g ts=%.3g tw=%.3g (machine table: tc=%.3g ts=%.3g tw=%.3g)\n",
			measured.Tc, measured.Ts, measured.Tw, model.Tc, model.Ts, model.Tw)
		model = measured
	}
	rt.Announce(model)
	var res *optipart.Result
	var digest uint64
	var body func(c *optipart.Comm) error
	if rr.pr.steps > 0 {
		copts, err := rr.pr.campaignOpts(rr.p)
		if err != nil {
			return nil, nil, 0, err
		}
		if rr.ckptDir != "" {
			store, err := optipart.NewSnapshotStore(rr.ckptDir)
			if err != nil {
				return nil, nil, 0, err
			}
			copts.Saver = store
			copts.Checkpointer = rt
		}
		body = rr.pr.campaignBody(copts, optipart.FreshCampaign(), &digest)
	} else {
		body, err = rr.pr.body(rr.p, &res)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	st, err := optipart.RunRank(0, rr.p, model, rt, optipart.CheckedOptions{}, body)
	if st != nil {
		rec := rt.Recovery()
		st.Recovery = &rec
	}
	if err != nil {
		return st, nil, 0, err
	}
	rt.Drain(5 * time.Second)
	return st, res, digest, nil
}
