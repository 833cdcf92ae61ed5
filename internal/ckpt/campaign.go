package ckpt

import (
	"fmt"
	"math/rand"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// CampaignOptions configures a multi-step refinement campaign: each step
// injects fresh octants (the AMR refinement proxy), repartitions, gathers
// the settled world placement (a priced collective — checkpointing is not
// free), folds it into the running digest, and optionally persists a
// snapshot on rank 0.
type CampaignOptions struct {
	// Steps is the total number of refinement steps in the campaign.
	Steps int
	// PerRank is how many fresh octants each rank injects per step.
	PerRank int
	// Seed drives octant generation; the keys a rank injects at step s are
	// a pure function of (Seed, s, rank), so a restored incarnation re-grows
	// exactly the mesh its predecessor would have.
	Seed int64

	Kind sfc.Kind
	Dim  int

	Mode    partition.Mode
	Tol     float64
	Machine machine.Machine
	Alpha   float64

	Dist               octree.Distribution
	MinLevel, MaxLevel uint8

	// Every is the checkpoint cadence in steps (≤0 means every step). The
	// cadence is a pure function of the step index, so restored runs
	// checkpoint at the same boundaries as the original.
	Every int

	// Saver, when non-nil, receives a snapshot at each checkpoint boundary.
	// Only rank 0 calls Save; all ranks still pay for the gather.
	Saver Saver

	// Checkpointer, when non-nil, is told (on rank 0, after a durable Save)
	// that state through seq is recoverable from stable storage — the wire
	// root uses this to prune its result replay log.
	Checkpointer Checkpointer

	// StepDone, when non-nil, runs on every rank after each step's
	// checkpoint boundary. Returning false makes that rank leave the
	// campaign at the boundary — the chaos harness's clean-drain injection.
	StepDone func(c *comm.Comm, step int, seq uint64) bool
}

// Checkpointer is notified when campaign state through a collective
// sequence number has been durably saved.
type Checkpointer interface {
	Checkpoint(seq uint64)
}

// Resume is where a rank starts (or restarts) a campaign.
type Resume struct {
	// Start is the first step to execute.
	Start int
	// Seq is the transport collective sequence number at Start: the
	// snapshot's Seq for a restored incarnation, 0 for a fresh world.
	Seq uint64
	// Digest is the running digest folded through Start steps.
	Digest uint64
	// Local is this rank's placement entering Start, in curve order.
	Local []sfc.Key
}

// Fresh is the Resume of a brand-new campaign.
func Fresh() Resume { return Resume{Digest: DigestInit} }

// ResumeFrom slices rank's restart state out of a snapshot.
func ResumeFrom(s *Snapshot, rank int) (Resume, error) {
	if rank < 0 || rank >= len(s.Placement) {
		return Resume{}, fmt.Errorf("ckpt: rank %d not in snapshot of p=%d", rank, len(s.Placement))
	}
	local := make([]sfc.Key, len(s.Placement[rank]))
	copy(local, s.Placement[rank])
	return Resume{Start: s.Epoch, Seq: s.Seq, Digest: s.Digest, Local: local}, nil
}

// CampaignResult is one rank's view of a finished (or drained) campaign.
type CampaignResult struct {
	// Digest is the running campaign digest through Steps completed steps.
	// It is identical on every rank that reaches the same step.
	Digest uint64
	// Steps is how many steps completed (less than Options.Steps only when
	// StepDone drained this rank early).
	Steps int
	// Local is the rank's final placement.
	Local []sfc.Key
	// Last is the final step's partition result.
	Last *partition.Result
}

// stepSeed mixes (seed, step, rank) into an independent stream seed.
func stepSeed(seed int64, step, rank int) int64 {
	x := uint64(seed) ^ par.SplitMix64(uint64(step)<<32|uint64(uint32(rank)))
	return int64(par.SplitMix64(x))
}

// RunCampaign executes the campaign from res through opts.Steps. It must be
// called collectively; every rank passes the same opts and its own res
// (all-fresh, or all sliced from the same snapshot — a restored incarnation
// may join a live world mid-flight, in which case its res comes from the
// snapshot whose Seq the transport is replaying from).
func RunCampaign(c *comm.Comm, res Resume, opts CampaignOptions) (CampaignResult, error) {
	curve := sfc.NewCurve(opts.Kind, opts.Dim)
	every := opts.Every
	if every <= 0 {
		every = 1
	}
	digest := res.Digest
	if digest == 0 {
		digest = DigestInit
	}
	local := make([]sfc.Key, len(res.Local))
	copy(local, res.Local)
	out := CampaignResult{Digest: digest, Steps: res.Start, Local: local}
	for s := res.Start; s < opts.Steps; s++ {
		c.SetPhase("refine")
		rng := rand.New(rand.NewSource(stepSeed(opts.Seed, s, c.Rank())))
		local = append(local, octree.RandomKeys(rng, opts.PerRank, opts.Dim, opts.Dist, opts.MinLevel, opts.MaxLevel)...)
		r := partition.Partition(c, local, partition.Options{
			Curve:   curve,
			Mode:    opts.Mode,
			Tol:     opts.Tol,
			Machine: opts.Machine,
			Alpha:   opts.Alpha,
		})
		local = r.Local
		out.Last = r

		// Checkpoint boundary: gather the settled world placement. Both
		// gathers run on every rank at every step so the collective schedule
		// is uniform and restart-invariant.
		c.SetPhase("checkpoint")
		counts := comm.Allgather(c, []int64{int64(len(local))}, 8)
		flat := comm.Allgather(c, local, keyBytes)
		placement, err := splitByCounts(flat, counts)
		if err != nil {
			return out, err
		}
		digest = DigestFold(digest, s, placement)
		seq := res.Seq + uint64(c.CollectiveIndex())
		out.Digest = digest
		out.Steps = s + 1
		out.Local = local

		if opts.Saver != nil && ((s+1)%every == 0 || s+1 == opts.Steps) && c.Rank() == 0 {
			snap := &Snapshot{
				Epoch:     s + 1,
				Seq:       seq,
				P:         c.Size(),
				Kind:      opts.Kind,
				Dim:       opts.Dim,
				Model:     opts.Machine.CostModel(),
				Digest:    digest,
				Seps:      r.Splitters.Seps,
				Placement: placement,
			}
			if err := opts.Saver.Save(snap); err != nil {
				return out, fmt.Errorf("ckpt: save epoch %d: %w", s+1, err)
			}
			if opts.Checkpointer != nil {
				opts.Checkpointer.Checkpoint(seq)
			}
		}
		if opts.StepDone != nil && !opts.StepDone(c, s, seq) {
			return out, nil
		}
	}
	return out, nil
}

// splitByCounts slices a flat allgathered key stream back into per-rank
// placements using the rank-ordered counts gathered alongside it.
func splitByCounts(flat []sfc.Key, counts []int64) ([][]sfc.Key, error) {
	placement := make([][]sfc.Key, len(counts))
	off := int64(0)
	for r, n := range counts {
		if n < 0 || off+n > int64(len(flat)) {
			return nil, fmt.Errorf("ckpt: gathered %d keys, rank %d claims %d at offset %d", len(flat), r, n, off)
		}
		placement[r] = flat[off : off+n : off+n]
		off += n
	}
	if off != int64(len(flat)) {
		return nil, fmt.Errorf("ckpt: gathered %d keys, counts cover %d", len(flat), off)
	}
	return placement, nil
}
