// Package comm is the distributed-memory substrate: an SPMD runtime that
// plays the role MPI plays in the paper. Run launches p ranks as goroutines;
// ranks communicate only through the collectives defined here (Allreduce,
// Allgather, Barrier, and a staged Alltoallv).
//
// Alongside moving real data between goroutines, every collective advances a
// virtual clock per rank according to a BSP cost model parameterized by the
// machine's memory slowness tc, network latency ts, and network slowness tw
// (Table 1 of the paper). Collectives synchronize the clocks — the cost of a
// phase is paid from the latest participating rank, exactly as a bulk-
// synchronous MPI program behaves — so World.Stats reports the modeled
// parallel runtime of the algorithm on the chosen machine, independent of
// the host this process runs on. Local computation is charged explicitly
// with Comm.Compute or Comm.Elapse.
//
// The accounting is deterministic: given the same inputs the virtual times,
// byte counts, and message counts are bit-identical across runs regardless
// of goroutine scheduling.
package comm

import (
	"math"
	"sync"
)

// CostModel carries the machine parameters used to price communication and
// computation, in seconds. The zero value prices everything at zero, which
// is convenient for pure correctness tests.
type CostModel struct {
	Tc float64 // memory slowness: seconds per byte of local traffic
	Ts float64 // network latency: seconds per message
	Tw float64 // network slowness: seconds per byte on the wire
}

// Hooks intercept the runtime at well-defined points. They exist for the
// fault-injection layer (internal/fault): BeforeCollective may panic to
// simulate a rank dying at its k-th collective, and the scale hooks model
// degraded hardware (stragglers) by stretching virtual time. Hooks must be
// deterministic functions of their arguments; they never change what data
// moves, only when the model says it arrives.
type Hooks struct {
	// BeforeCollective runs on the calling rank at entry to each
	// collective, before any synchronization. seq is the 0-based index of
	// this rank's collective call. A panic here kills the rank.
	BeforeCollective func(rank int, op string, seq int)
	// ElapseScale returns a multiplier for local time charges (Compute,
	// Elapse) on the given rank. A degraded memory system is tc·mult.
	ElapseScale func(rank int) float64
	// CollectiveScale returns a multiplier for the BSP cost of a
	// collective step. Under bulk-synchronous semantics one slow NIC slows
	// the whole step, so the fault layer returns the worst multiplier
	// among degraded ranks.
	CollectiveScale func(op string) float64
}

// sig is the signature of a collective call, verified across ranks at every
// step.
type sig struct {
	op        string
	elemBytes int
}

// rankStatus is the watchdog-visible position of one rank, guarded by
// World.statusMu (the barrier-ordered sigs/seqs arrays are not safe to
// read from outside the world's goroutines).
type rankStatus struct {
	op    string
	phase string
	seq   int // collectives entered so far
	done  bool
}

// World holds the shared state of one SPMD run. Under the in-process
// transport all p ranks share one World; under a wire transport each
// process holds its own World of size p with a single live rank, and the
// transport keeps the rank-0 copy authoritative.
type World struct {
	p         int
	model     CostModel
	transport Transport

	slots   []any // per-rank deposit area for collectives
	scratch any   // rank-0 deposit for computed aggregates

	clocks    []float64
	phases    []string
	phaseTime []map[string]float64
	bytesSent []int64
	msgsSent  []int64

	trace *Trace // nil unless the run is traced

	hooks Hooks
	sigs  []sig // per-rank signature of the collective being entered
	seqs  []int // per-rank count of collectives entered

	// Unreliable-transport state (transport.go), active when net is
	// non-nil. All of it is touched only on rank 0 between the deposit and
	// consume barriers, the same window as the byte accounting above.
	net         NetInjector
	netOpts     TransportOptions
	netSeq      []uint64  // per directed (src,dst) link message sequence counter
	retrans     []int64   // per-rank retransmission count
	retryBytes  []int64   // per-rank retransmitted bytes
	dups        []int64   // per-rank duplicate deliveries discarded (receiver side)
	pendingMsgs []netMsg  // logical messages of the collective step in flight
	pktScratch  []int     // reusable frame-index buffer for deliver
	roundsBuf   []float64 // reusable per-round delay buffer for netStep
	i64Scratch  []int64   // reusable int64 scratch (allgather contributions, prefix sums)

	statusMu sync.Mutex
	status   []rankStatus // watchdog-visible mirror of sigs/seqs/phases

	failMu  sync.Mutex
	failure error         // first failure wins
	failCh  chan struct{} // closed on first failure
}

// Comm is one rank's handle to the world. It is only valid inside the
// function passed to Run, on that rank's goroutine.
type Comm struct {
	w    *World
	rank int
}

// Run executes f on p ranks concurrently and returns the accumulated
// statistics once every rank has returned. It is RunCheckedOpts for bodies
// that cannot fail: the world's failure — a rank panic (*RankFailure
// wrapping the panic value), ranks calling different collectives
// (*MismatchError, *AbandonedError), an API misuse (*UsageError) — is
// re-panicked on the caller's goroutine instead of being returned.
func Run(p int, model CostModel, f func(c *Comm)) *Stats {
	return mustRun(p, model, nil, f)
}

// mustRun is the body Run and RunTraced share.
func mustRun(p int, model CostModel, trace *Trace, f func(c *Comm)) *Stats {
	stats, err := RunCheckedOpts(p, model, runOptions(trace), func(c *Comm) error { f(c); return nil })
	if err != nil {
		panic(err)
	}
	return stats
}

// runOptions are the options Run and RunTraced pass to RunCheckedOpts: no
// stall watchdog, because a body running under Run may legitimately spend
// longer than DefaultStallTimeout in real local computation between two
// collectives and must not be killed for it.
func runOptions(trace *Trace) CheckedOptions {
	return CheckedOptions{StallTimeout: -1, Trace: trace}
}

// newWorld allocates and arms a p-rank world: the clocks and accounting, the
// collective-signature and watchdog-status arrays, the failure latch, and
// the simulated unreliable network when opts.Net is set. t is the wire
// transport of a single-rank process (RunRank); nil means all p ranks meet
// at an in-process barrier.
func newWorld(p int, model CostModel, opts CheckedOptions, t Transport) *World {
	w := &World{
		trace:     opts.Trace,
		hooks:     opts.Hooks,
		p:         p,
		model:     model,
		transport: t,
		slots:     make([]any, p),
		clocks:    make([]float64, p),
		phases:    make([]string, p),
		phaseTime: make([]map[string]float64, p),
		bytesSent: make([]int64, p),
		msgsSent:  make([]int64, p),
		sigs:      make([]sig, p),
		seqs:      make([]int, p),
		status:    make([]rankStatus, p),
		failCh:    make(chan struct{}),
	}
	for i := range w.phaseTime {
		w.phaseTime[i] = make(map[string]float64)
		w.phases[i] = "main"
		w.status[i].phase = "main"
	}
	if t == nil {
		w.transport = &inprocTransport{w: w, barrier: newBarrier(p)}
	}
	w.transport.Bind(w.fail)
	if opts.Net != nil {
		w.net = opts.Net
		w.netOpts = opts.Transport.withDefaults()
		w.netSeq = make([]uint64, p*p)
		w.retrans = make([]int64, p)
		w.retryBytes = make([]int64, p)
		w.dups = make([]int64, p)
	}
	return w
}

// runRank is the body of one rank's goroutine: f's panic or returned error
// becomes the world's failure (a worldAbort panic is a survivor unwinding
// from a failure already recorded), and the rank departs either way so a
// collective its peers still wait in is reported as abandoned.
func (w *World) runRank(rank int, f func(c *Comm) error) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(worldAbort); !ok {
				w.fail(w.rankFailure(rank, rec))
			}
		}
		w.depart(rank)
	}()
	if err := f(&Comm{w: w, rank: rank}); err != nil {
		w.fail(w.rankFailure(rank, err))
	}
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.p }

// SetPhase labels subsequent virtual-time charges on this rank. Phases let
// experiments report the paper's breakdowns (splitter / local sort /
// all2all).
func (c *Comm) SetPhase(name string) {
	c.w.phases[c.rank] = name
	c.w.statusMu.Lock()
	c.w.status[c.rank].phase = name
	c.w.statusMu.Unlock()
}

// Elapse charges dt seconds of local time to this rank's clock under its
// current phase.
func (c *Comm) Elapse(dt float64) {
	if s := c.w.hooks.ElapseScale; s != nil {
		dt *= s(c.rank)
	}
	start := c.w.clocks[c.rank]
	c.w.clocks[c.rank] += dt
	c.w.phaseTime[c.rank][c.w.phases[c.rank]] += dt
	if c.w.trace != nil {
		c.w.trace.add(Event{
			Rank: c.rank, Phase: c.w.phases[c.rank], Op: "compute",
			Start: start, End: c.w.clocks[c.rank],
		})
	}
}

// Compute charges the cost of touching bytes of local memory accesses: tc
// per byte. Algorithms call it once per pass over their data, which is how
// the tc·N/p terms of Eqs. (1)–(2) enter the model.
func (c *Comm) Compute(bytes int64) {
	c.Elapse(c.w.model.Tc * float64(bytes))
}

// Clock returns this rank's current virtual time.
func (c *Comm) Clock() float64 { return c.w.clocks[c.rank] }

// CollectiveIndex returns the number of collectives this rank has entered
// so far — the per-rank step counter that fault plans key on (a Kill at
// AtCollective k fires when this counter is k).
func (c *Comm) CollectiveIndex() int { return c.w.seqs[c.rank] }

// PhaseClock returns this rank's accumulated virtual time in the named
// phase so far.
func (c *Comm) PhaseClock(name string) float64 { return c.w.phaseTime[c.rank][name] }

// log2p returns ceil(log2(p)), 0 for p == 1.
func log2p(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// sync runs one synchronized step: every rank deposits into slots, rank 0
// computes (seeing all deposits) and assigns per-rank costs, then every rank
// extracts its private copy of the result via consume. compute runs exactly
// once, on rank 0, and returns the uniform virtual cost of the step.
// consume runs on every rank while all ranks are still inside the step, so
// it may safely read data owned by other ranks; anything it returns must be
// a copy, because deposited buffers belong to their owners again as soon as
// sync returns.
//
// The preamble (sequence counting, signature posting, kill hooks) runs
// here, on the calling rank, for every backend; the synchronization itself —
// barrier-and-shared-memory in process, framed sockets across processes — is
// the transport's Step.
func (c *Comm) sync(op string, elemBytes int, deposit any, compute func() float64, consume func(scratch any) any) any {
	w := c.w
	seq := w.seqs[c.rank]
	w.seqs[c.rank]++
	w.sigs[c.rank] = sig{op: op, elemBytes: elemBytes}
	w.statusMu.Lock()
	w.status[c.rank] = rankStatus{op: op, phase: w.phases[c.rank], seq: seq + 1}
	w.statusMu.Unlock()
	if h := w.hooks.BeforeCollective; h != nil {
		h(c.rank, op, seq) // a panic here kills the rank
	}
	return w.transport.Step(&StepState{
		c: c, op: op, elemBytes: elemBytes,
		deposit: deposit, compute: compute, consume: consume,
	})
}

// verifySigs runs on rank 0 between the deposit and compute barriers of a
// sync step, when every rank's signature is posted and stable. A
// mismatch means ranks called different collectives at the same step — a
// bug that deadlocks real MPI programs; here it fails the world with the
// full call map instead.
func (w *World) verifySigs() {
	for r := 1; r < w.p; r++ {
		if w.sigs[r] != w.sigs[0] {
			calls := make([]SigCall, w.p)
			for i := 0; i < w.p; i++ {
				calls[i] = SigCall{Rank: i, Op: w.sigs[i].op, ElemBytes: w.sigs[i].elemBytes}
			}
			w.fail(&MismatchError{Step: w.seqs[0] - 1, Calls: calls})
			panic(worldAbort{})
		}
	}
}

// fail records the world's first failure and cancels the transport so every
// rank unblocks. Later failures (secondary victims of the cancellation) are
// dropped: the first cause is the report.
func (w *World) fail(err error) {
	w.failMu.Lock()
	if w.failure == nil {
		w.failure = err
		close(w.failCh)
	}
	w.failMu.Unlock()
	w.transport.Cancel(err)
}

// Barrier synchronizes all ranks, charging the latency of a log2(p)-deep
// synchronization tree.
func (c *Comm) Barrier() {
	c.sync("barrier", 0, nil, func() float64 {
		w := c.w
		if w.net != nil {
			// Barrier messages are header-only, but headers drop too.
			w.pendingMsgs = netTree(w.pendingMsgs[:0], w.p, 0)
		}
		return w.model.Ts * log2p(w.p)
	}, nil)
}
