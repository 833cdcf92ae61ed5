// Package optipart is a Go implementation of OptiPart — the machine- and
// application-aware space-filling-curve partitioner for adaptive mesh
// refinement of Fernando, Duplyakin & Sundar, "Machine and Application
// Aware Partitioning for Adaptive Mesh Refinement Applications" (HPDC'17) —
// together with every substrate the paper's evaluation depends on: Morton
// and Hilbert curves over linear octrees, a TreeSort-based distributed
// partitioner with flexible load-balance tolerance, the performance model
// Tp = α·tc·Wmax + tw·Cmax, an SPMD runtime standing in for MPI, machine
// models for the paper's four clusters, a ghost-layer/communication-matrix
// layer, an adaptive FEM matvec application, and a power/energy simulator.
//
// # Quick start
//
//	curve := optipart.NewCurve(optipart.Hilbert, 3)
//	m := optipart.Clemson32()
//	optipart.Run(64, m, func(c *optipart.Comm) {
//	    keys := optipart.RandomKeys(rand.New(rand.NewSource(int64(c.Rank()))),
//	        100000, 3, optipart.Normal, 2, 18)
//	    res := optipart.Partition(c, keys, optipart.Options{
//	        Curve: curve,
//	        Mode:  optipart.ModelDriven, // OptiPart: let the model pick the tolerance
//	        Machine: m,
//	    })
//	    // res.Local is this rank's partition, sorted along the curve.
//	})
//
// The deeper layers are exposed through type aliases, so the whole public
// surface is documented on the aliased types.
package optipart

import (
	"io"
	"math/rand"

	"optipart/internal/ckpt"
	"optipart/internal/comm"
	"optipart/internal/fault"
	"optipart/internal/fem"
	"optipart/internal/machine"
	"optipart/internal/mesh"
	wnet "optipart/internal/net"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/partition"
	"optipart/internal/power"
	"optipart/internal/psort"
	"optipart/internal/service"
	"optipart/internal/sfc"
)

// Key identifies an octant: anchor coordinates on the 2^MaxLevel grid plus
// a refinement level.
type Key = sfc.Key

// MaxLevel is the maximum octree depth (Dmax = 30, as in the paper).
const MaxLevel = sfc.MaxLevel

// Curve is a space-filling curve (Morton or Hilbert, 2D or 3D).
type Curve = sfc.Curve

// CurveKind selects the curve family.
type CurveKind = sfc.Kind

// Curve kinds.
const (
	Morton  = sfc.Morton
	Hilbert = sfc.Hilbert
)

// NewCurve builds a curve of the given kind for dim ∈ {2, 3} dimensions.
func NewCurve(kind CurveKind, dim int) *Curve { return sfc.NewCurve(kind, dim) }

// Tree is a linear octree (sorted leaves, no ancestor pairs).
type Tree = octree.Tree

// Distribution selects the spatial distribution of generated octants.
type Distribution = octree.Distribution

// Input distributions (§4.2 of the paper).
const (
	Uniform   = octree.Uniform
	Normal    = octree.Normal
	LogNormal = octree.LogNormal
)

// RandomKeys generates n random octant keys — the element streams the
// partitioning algorithms ingest.
func RandomKeys(rng *rand.Rand, n, dim int, dist Distribution, minLevel, maxLevel uint8) []Key {
	return octree.RandomKeys(rng, n, dim, dist, minLevel, maxLevel)
}

// AdaptiveMesh builds a complete linear octree refined around nSeeds random
// points; Balance21 makes it 2:1 face-balanced for FEM use.
func AdaptiveMesh(rng *rand.Rand, nSeeds, dim int, dist Distribution, maxLevel uint8) *Tree {
	return octree.AdaptiveMesh(rng, nSeeds, dim, dist, maxLevel)
}

// Balance21 enforces the 2:1 face-balance condition.
func Balance21(t *Tree) *Tree { return octree.Balance21(t) }

// Machine is a cluster model: cost parameters (tc, ts, tw), topology, and
// node power characteristics.
type Machine = machine.Machine

// The four machines of the paper's evaluation.
func Titan() Machine      { return machine.Titan() }
func Stampede() Machine   { return machine.Stampede() }
func Clemson32() Machine  { return machine.Clemson32() }
func Wisconsin8() Machine { return machine.Wisconsin8() }

// DefaultAlpha is the memory-access count per unit of work for stencil-like
// applications (α ≈ 8, §3.3).
const DefaultAlpha = machine.DefaultAlpha

// GhostPayloadBytes is the wire size of one ghost element during the
// boundary exchange — the unit the migration term charges per moved element.
const GhostPayloadBytes = machine.GhostPayloadBytes

// Comm is one rank's handle to the SPMD world (the MPI communicator of the
// paper). Stats carries the modeled times and traffic of a run.
type (
	Comm  = comm.Comm
	Stats = comm.Stats
)

// Run executes f on p ranks under the machine's cost model and returns the
// run's modeled statistics. It is the entry point to everything collective.
// A rank that panics, or ranks that call mismatched collectives, make Run
// panic with the structured failure RunChecked would return.
func Run(p int, m Machine, f func(c *Comm)) *Stats {
	return comm.Run(p, m.CostModel(), f)
}

// Workers returns the width of the process-wide worker pool the local
// kernels (sorting, scans, bucketing) run on. The pool is shared by all
// simulated ranks, so p ranks never oversubscribe the host.
func Workers() int { return par.Workers() }

// SetWorkers resizes the shared worker pool and returns the previous width;
// 1 forces every kernel onto its serial path. Results and modeled costs are
// identical at every width — only host wall-clock changes.
func SetWorkers(n int) int { return par.SetWorkers(n) }

// Fault tolerance. A rank that panics or returns an error terminates the
// world with a structured *RankFailure instead of stranding the survivors in
// a barrier, and mismatched collectives report who called what instead of
// deadlocking; Run panics with that failure, RunChecked returns it and adds
// a watchdog that converts any remaining stall into an error naming each
// stuck rank's last op and phase. FaultPlan (internal/fault) injects deterministic rank deaths and
// stragglers for resilience experiments; see `experiments -run faults` for
// the recovery-by-repartition campaign built on top.
type (
	RankFailure = comm.RankFailure
	FaultPlan   = fault.Plan
	FaultKill   = fault.Kill
	Straggler   = fault.Straggler
)

// RunChecked executes f on p ranks like Run, but returns the world's
// failure instead of panicking with it.
func RunChecked(p int, m Machine, f func(c *Comm) error) (*Stats, error) {
	return comm.RunChecked(p, m.CostModel(), f)
}

// RunWithFaults is RunChecked with a deterministic fault-injection plan:
// scheduled rank kills surface as *RankFailure errors, and straggler
// multipliers stretch the affected ranks' virtual time without changing
// any payload.
func RunWithFaults(p int, m Machine, plan *FaultPlan, f func(c *Comm) error) (*Stats, error) {
	return fault.Run(p, m.CostModel(), plan, f)
}

// Multi-process deployment. The SPMD world runs over a pluggable Transport:
// the default backend schedules every rank as a goroutine in one process
// (bit-identical to the golden transcripts), while the wire backend
// (internal/net) runs each rank in its own OS process over unix or TCP
// sockets — length-prefixed checksummed frames, reconnect with exponential
// backoff that escalates to a structured *LinkFailure — the trigger for
// recovery-by-repartition on the survivors — and heartbeat failure
// detection that surfaces genuinely dead peers as *RankFailure. A WireRoot
// listens and hosts rank 0; each WireWorker process dials in, learns the
// cost model from the root's welcome, and joins the world via RunRank. See
// cmd/optipartd for the ready-made worker/driver binary.
type (
	CostModel        = comm.CostModel
	LinkFailure      = comm.LinkFailure
	Transport        = comm.Transport
	CheckedOptions   = comm.CheckedOptions
	WireOptions      = wnet.Options
	WireRoot         = wnet.Root
	WireWorker       = wnet.Worker
	CalibrateOptions = wnet.CalibrateOptions
	HardKill         = fault.HardKill
)

// ListenRoot binds the root transport of a p-rank wire world on endpoint
// ("unix:/path/to.sock" or "tcp:host:port"). The caller hosts rank 0:
// WaitReady for the other ranks, optionally Calibrate, Announce the model,
// then RunRank(0, ...) with the root as the transport.
func ListenRoot(endpoint string, p int, opts WireOptions) (*WireRoot, error) {
	return wnet.NewRoot(endpoint, p, opts)
}

// DialRoot connects one worker rank (1 <= rank < p) to a listening root
// and blocks until the root announces the world's cost model; run the rank
// program with RunRank and the returned worker as the transport.
func DialRoot(endpoint string, rank, p int, opts WireOptions) (*WireWorker, error) {
	return wnet.Dial(endpoint, rank, p, opts)
}

// RunRank executes this process's one rank of a p-rank world over the
// given transport — the per-process counterpart of RunChecked.
func RunRank(rank, p int, model CostModel, t Transport, opts CheckedOptions, f func(c *Comm) error) (*Stats, error) {
	return comm.RunRank(rank, p, model, t, opts, f)
}

// Self-healing runtime. A checkpointed campaign (internal/ckpt) snapshots
// the world placement at step boundaries; under the Restore failure policy
// the wire root holds a dead rank's slot open for DefaultRejoinWait, a
// supervisor respawns the worker under a RespawnBudget, and the replacement
// rejoins with a higher incarnation number via DialRootResume — the root
// replays the results it is owed and the campaign finishes bit-identical to
// a fault-free run. ChaosPlan drives the seeded multi-outage harness (see
// `experiments -run chaos`).
type (
	FailurePolicy   = wnet.Policy
	ShutdownError   = wnet.ShutdownError
	JoinTimeout     = wnet.JoinTimeout
	RecoveryStats   = comm.RecoveryStats
	Snapshot        = ckpt.Snapshot
	SnapshotStore   = ckpt.Store
	SnapshotSaver   = ckpt.Saver
	MemStore        = ckpt.MemStore
	CampaignOptions = ckpt.CampaignOptions
	CampaignResume  = ckpt.Resume
	RespawnBudget   = fault.RespawnBudget
	ChaosPlan       = fault.ChaosPlan
	ChaosEvent      = fault.ChaosEvent
	ChaosOptions    = fault.ChaosOptions
)

// Failure policies for WireOptions.OnFailure.
const (
	Degrade = wnet.Degrade
	Restore = wnet.Restore
)

// ParseFailurePolicy maps "degrade"/"restore" flag values to a policy.
func ParseFailurePolicy(s string) (FailurePolicy, error) { return wnet.ParsePolicy(s) }

// ResumeNone marks a fresh (non-restored) dial.
const ResumeNone = wnet.ResumeNone

// DialRootResume is DialRoot for a restored incarnation: resume is the
// snapshot's collective sequence number (the root replays every logged
// result at or after it) and inc must exceed the dead incarnation's number
// (fresh workers are incarnation 0).
func DialRootResume(endpoint string, rank, p int, resume, inc uint64, opts WireOptions) (*WireWorker, error) {
	return wnet.DialResume(endpoint, rank, p, resume, inc, opts)
}

// NewSnapshotStore opens (creating if needed) an on-disk snapshot store.
func NewSnapshotStore(dir string) (*SnapshotStore, error) { return ckpt.NewStore(dir) }

// NewMemStore builds an in-memory snapshot store for tests and harnesses.
func NewMemStore() *MemStore { return ckpt.NewMemStore() }

// RunCampaign executes a checkpointed multi-step refinement campaign on
// this rank. Collective.
func RunCampaign(c *Comm, res CampaignResume, opts CampaignOptions) (ckpt.CampaignResult, error) {
	return ckpt.RunCampaign(c, res, opts)
}

// FreshCampaign is the Resume of a brand-new campaign.
func FreshCampaign() CampaignResume { return ckpt.Fresh() }

// ResumeCampaign slices rank's restart state out of a snapshot.
func ResumeCampaign(s *Snapshot, rank int) (CampaignResume, error) { return ckpt.ResumeFrom(s, rank) }

// RandomChaosPlan draws a deterministic chaos schedule for a p-rank world.
func RandomChaosPlan(seed int64, p int, opts ChaosOptions) (*ChaosPlan, error) {
	return fault.RandomChaosPlan(seed, p, opts)
}

// Trace is a per-rank virtual timeline of a traced run.
type Trace = comm.Trace

// RunTraced is Run with event recording; render the result with
// comm.RenderTimeline for an ASCII Gantt chart of compute vs collective
// time per rank.
func RunTraced(p int, m Machine, f func(c *Comm)) (*Stats, *Trace) {
	return comm.RunTraced(p, m.CostModel(), f)
}

// Partitioning modes.
const (
	// EqualWork is the standard SFC partition (distributed TreeSort).
	EqualWork = partition.EqualWork
	// FlexibleTolerance trades up to Tol·N/p of imbalance for boundary
	// reduction (§3.2).
	FlexibleTolerance = partition.FlexibleTolerance
	// ModelDriven is OptiPart (Algorithm 3).
	ModelDriven = partition.ModelDriven
)

// Options configures Partition; Result reports its outcome; Quality is the
// partition-quality summary of Algorithm 2; Splitters define the computed
// ranges.
type (
	Options   = partition.Options
	Result    = partition.Result
	Quality   = partition.Quality
	Splitters = partition.Splitters
	Mode      = partition.Mode
)

// Partition sorts, selects splitters under the chosen mode, and exchanges
// elements so every rank holds its partition. Collective.
func Partition(c *Comm, local []Key, opts Options) *Result {
	return partition.Partition(c, local, opts)
}

// EvaluateQuality is Algorithm 2: work and boundary extrema of a candidate
// partition, from one local pass and one reduction. Collective.
func EvaluateQuality(c *Comm, curve *Curve, local []Key, sp *Splitters) Quality {
	return partition.EvaluateQuality(c, curve, local, sp)
}

// Incremental repartitioning for online AMR loops. Repartition is the
// migration-aware counterpart of Partition: it seeds selection from the
// prior placement and prices every candidate — the kept prior, low-movement
// re-aims of only the out-of-tolerance separators, and the rungs of a full
// from-scratch descent — with J = horizon·Tp + tw·movedBytes, adopting a
// rebalance only when the moved bytes pay for themselves within the
// horizon. Repartitioner is the serial engine form of the same trade: one
// address space holding the mesh as arena-backed columns, warm-stepped
// through an Evolver's refine/coarsen deltas with zero steady-state
// allocations. See `experiments -run repart` for the campaign comparison
// against from-scratch OptiPart and SampleSort.
type (
	RepartOptions = partition.RepartOptions
	RepartResult  = partition.RepartResult
	Repartitioner = partition.Repartitioner
	RepartConfig  = partition.RepartConfig
	StepResult    = partition.StepResult
	Evolver       = octree.Evolver
	MeshDelta     = octree.Delta
)

// DefaultHorizon is the number of application steps a new placement is
// assumed to serve before the next regrid when RepartOptions.Horizon is 0.
const DefaultHorizon = machine.DefaultHorizon

// Repartition incrementally repartitions local (each rank's current
// elements) against the prior placement in opts.Prior, which is required.
// Collective.
func Repartition(c *Comm, local []Key, opts RepartOptions) *RepartResult {
	return partition.Repartition(c, local, opts)
}

// MovedElements counts, collectively, the elements whose owner differs
// between two placements of the same world size.
func MovedElements(c *Comm, local []Key, prior, next *Splitters) int64 {
	return partition.MovedElements(c, local, prior, next)
}

// NewRepartitioner builds the serial incremental engine.
func NewRepartitioner(cfg RepartConfig) *Repartitioner { return partition.NewRepartitioner(cfg) }

// NewEvolver starts a deterministic refine/coarsen evolution from a
// complete linear leaf set; each Step returns the edit script as a Delta.
func NewEvolver(curve *Curve, seed int64, leaves []Key) *Evolver {
	return octree.NewEvolver(curve, seed, leaves)
}

// FrontBias builds the moving-refinement-front bias pair for an Evolver:
// refinement concentrates in a hotspot octant that advances every period
// steps, and coarsening drains resolution behind it.
func FrontBias(dim, period int, hot, cold float64) (refine, coarsen func(Key, int) float64) {
	return octree.FrontBias(dim, period, hot, cold)
}

// TreeSort reorders keys in place into curve order (Algorithm 1).
func TreeSort(curve *Curve, keys []Key) { psort.TreeSort(curve, keys) }

// SampleSort is the Dendro-style baseline partitioner/sorter. Collective.
func SampleSort(c *Comm, local []Key, curve *Curve) []Key {
	return psort.SampleSort(c, local, curve)
}

// Partitioning-as-a-service. A PartitionService is a long-lived facility
// serving concurrent partitioning campaigns: requests are canonicalized
// (sorted, linearized) into content-addressed octrees, memoized under a
// 128-bit digest with exact-match verification, coalesced when identical
// requests race (singleflight), and admitted to a bounded set of execution
// slots in arrival order. A miss is a cold Partition (warm starts run in
// process: Repartition, Repartitioner); a hit allocates nothing. Serve it
// over sockets with `optipartd -serve`, or embed it and call Do.
type (
	PartitionService    = service.Service
	ServiceConfig       = service.Config
	ServiceRequest      = service.Request
	ServiceResponse     = service.Response
	ServiceMetrics      = service.Metrics
	ServiceWireRequest  = service.WireRequest
	ServiceWireResponse = service.WireResponse
)

// ErrServiceClosed is returned by PartitionService.Do after Close.
var ErrServiceClosed = service.ErrClosed

// NewService builds a partitioning service. Close it when done.
func NewService(cfg ServiceConfig) *PartitionService { return service.New(cfg) }

// ServeServiceConn runs the gob request/response loop for one client
// connection until EOF. Synchronous: callers own the connection goroutine.
func ServeServiceConn(s *PartitionService, conn io.ReadWriter) error {
	return service.ServeConn(s, conn)
}

// Ghost is a rank's halo layer; CommMatrix is the communication matrix M of
// §5.5.
type (
	Ghost      = mesh.Ghost
	CommMatrix = mesh.Matrix
)

// BuildGhost constructs the halo for a partitioned, 2:1-balanced complete
// tree. Collective.
func BuildGhost(c *Comm, local []Key, sp *Splitters) *Ghost {
	return mesh.Build(c, local, sp)
}

// GatherCommMatrix assembles the global communication matrix. Collective.
func GatherCommMatrix(c *Comm, g *Ghost) *CommMatrix {
	return mesh.GatherMatrix(c, g)
}

// Problem is the distributed adaptive Laplacian of §5.3 (matvec, CG).
type Problem = fem.Problem

// SetupPoisson builds the distributed operator on a partitioned mesh.
// Collective.
func SetupPoisson(c *Comm, local []Key, sp *Splitters) *Problem {
	return fem.Setup(c, local, sp)
}

// RunMatvecs applies the operator iters times (the paper's measurement
// loop). Collective.
func RunMatvecs(c *Comm, p *Problem, iters int, seed int64) fem.CampaignResult {
	return fem.RunCampaign(c, p, iters, seed)
}

// Energy measurement (the §4.1 methodology).
type (
	PowerJob         = power.Job
	PowerMeasurement = power.Measurement
)

// MeasureEnergy simulates the 1 Hz IPMI sampling of a job built from
// per-rank busy times and a modeled duration.
func MeasureEnergy(m Machine, busy []float64, duration float64, rng *rand.Rand) *PowerMeasurement {
	return power.Measure(power.JobFromRankTimes(m, busy, duration), rng)
}
