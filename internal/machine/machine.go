// Package machine defines the machine models that make the partitioner
// architecture-aware: the memory slowness tc, network latency ts, and
// network slowness tw of Table 1, plus node topology and power
// characteristics for the energy experiments. It also implements the
// performance model of §3.3, Eq. (3):
//
//	Tp = α·tc·Wmax + tw·Cmax
//
// The four machines of the paper's evaluation (ORNL Titan, TACC Stampede,
// CloudLab Clemson-32 and Wisconsin-8) are provided with parameters derived
// from the hardware descriptions in §4 and public specifications. Absolute
// seconds are not expected to match the authors' testbeds; the machines
// differ from one another in the same directions (Titan/Stampede have fast
// interconnects, the CloudLab clusters have slow 10 GbE and many ranks per
// node), which is what drives the paper's machine-dependent partitions.
package machine

import (
	"fmt"
	"strings"

	"optipart/internal/comm"
)

// Machine describes one cluster.
type Machine struct {
	Name         string
	CoresPerNode int // MPI ranks per node in the paper's runs
	Nodes        int

	Tc float64 // memory slowness, seconds per byte (1 / RAM bandwidth per rank)
	Ts float64 // network latency, seconds per message
	Tw float64 // network slowness, seconds per byte per rank

	// Power model: node draw is IdleWatts + DynWatts·utilization, matching
	// the strong runtime/energy correlation observed in §5.4.
	IdleWatts float64
	DynWatts  float64
}

// WordBytes is the size of one unit of application data (a double), the
// unit in which Wmax is measured by the performance model.
const WordBytes = 8

// GhostPayloadBytes is the wire size of one ghost element during the
// matvec's halo refresh. An FEM element carries its nodal data, not a
// single scalar: eight corner values plus element metadata, ~32 doubles for
// the paper's trilinear discretization. This is what makes Cmax expensive
// relative to Wmax in Eq. (3) and the halo exchange bandwidth-bound at the
// paper's grain sizes.
const GhostPayloadBytes = 256

// CostModel converts the machine to the comm package's BSP cost model.
func (m Machine) CostModel() comm.CostModel {
	return comm.CostModel{Tc: m.Tc, Ts: m.Ts, Tw: m.Tw}
}

// Predict evaluates Eq. (3): the modeled time of one application step on a
// partition with maximum per-rank work Wmax (elements) and maximum per-rank
// communication Cmax (elements), where alpha is the number of memory
// accesses per unit of work (≈8 for a 7-point stencil). Work moves
// WordBytes per access; each communicated element moves its full
// GhostPayloadBytes.
func (m Machine) Predict(alpha float64, wmax, cmax int64) float64 {
	return m.PredictKernel(alpha, GhostPayloadBytes, wmax, cmax)
}

// PredictKernel is Predict with an explicit ghost payload size, for
// applications whose halo elements are larger or smaller than the default
// (e.g. high-order elements).
func (m Machine) PredictKernel(alpha float64, payloadBytes int, wmax, cmax int64) float64 {
	return alpha*m.Tc*WordBytes*float64(wmax) + m.Tw*float64(payloadBytes)*float64(cmax)
}

// DefaultHorizon is the number of application steps a placement is expected
// to survive before the next repartition. It is the α-style knob of the
// migration-aware objective: the repartitioner minimizes
//
//	J = horizon·Tp + MigrationCost(movedBytes)
//
// so a large horizon amortizes movement over many solves (tolerate more
// migration for a better Tp), while a small one keeps data where it is
// (tolerate more imbalance to avoid paying tw twice for the same bytes).
const DefaultHorizon = 10.0

// MigrationCost is the modeled one-time cost of moving movedBytes of
// application state between ranks during a repartition: bytes moved × tw,
// the same currency Eq. (3) charges for ghost exchange. Charging movement
// in wire seconds is what lets the incremental repartitioner trade residual
// imbalance against migration on equal terms.
func (m Machine) MigrationCost(movedBytes int64) float64 {
	return m.Tw * float64(movedBytes)
}

// PredictRepartition is the migration-aware objective for adopting a new
// placement that will serve horizon application steps before the mesh
// changes again: horizon repeats of Eq. (3) plus the one-time cost of
// moving movedBytes to install it. horizon <= 0 selects DefaultHorizon.
func (m Machine) PredictRepartition(alpha float64, payloadBytes int, wmax, cmax, movedBytes int64, horizon float64) float64 {
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	return horizon*m.PredictKernel(alpha, payloadBytes, wmax, cmax) + m.MigrationCost(movedBytes)
}

func (m Machine) String() string {
	return fmt.Sprintf("%s (%d nodes × %d ranks, tc=%.2e ts=%.2e tw=%.2e)",
		m.Name, m.Nodes, m.CoresPerNode, m.Tc, m.Ts, m.Tw)
}

// Titan models ORNL's Titan: Cray XK7, 16-core AMD Opteron 6274 per node,
// 32 GB/node, Gemini interconnect (§4).
func Titan() Machine {
	return Machine{
		Name:         "Titan",
		CoresPerNode: 16,
		Nodes:        18688,
		Tc:           3.0e-10, // ~3.3 GB/s of DDR3 bandwidth per rank
		Ts:           4.0e-6,  // Gemini MPI latency
		Tw:           2.5e-9,  // ~400 MB/s injection per rank (6.4 GB/s node)
		IdleWatts:    120,
		DynWatts:     180,
	}
}

// Stampede models TACC's Stampede: dual 8-core Xeon E5-2680 per node,
// 2 GB/core, 56 Gb/s FDR InfiniBand fat tree (§4).
func Stampede() Machine {
	return Machine{
		Name:         "Stampede",
		CoresPerNode: 16,
		Nodes:        6400,
		Tc:           2.4e-10, // ~4.2 GB/s per rank of DDR3-1600
		Ts:           2.0e-6,  // FDR IB latency
		Tw:           2.3e-9,  // 7 GB/s node injection / 16 ranks
		IdleWatts:    110,
		DynWatts:     170,
	}
}

// Clemson32 models the CloudLab Clemson cluster of §4.1: 32 nodes, dual
// 14-core E5-2683 v3 (2.0 GHz, frequency scaling disabled), 256 GB memory,
// 10 Gb Ethernet, 56 ranks per node (1792 MPI tasks).
func Clemson32() Machine {
	return Machine{
		Name:         "Clemson-32",
		CoresPerNode: 56,
		Nodes:        32,
		Tc:           2.0e-10, // DDR4 but many ranks per node
		Ts:           3.0e-5,  // TCP over 10 GbE
		Tw:           4.5e-8,  // 1.25 GB/s node / 56 ranks ≈ 22 MB/s per rank
		IdleWatts:    105,
		DynWatts:     245,
	}
}

// Wisconsin8 models the CloudLab Wisconsin cluster of §4.1: 8 nodes, dual
// 8-core E5-2630 v3 (2.4 GHz), 128 GB memory, 10 Gb Ethernet, 32 ranks per
// node (256 MPI tasks).
func Wisconsin8() Machine {
	return Machine{
		Name:         "Wisconsin-8",
		CoresPerNode: 32,
		Nodes:        8,
		Tc:           1.8e-10,
		Ts:           3.0e-5,
		Tw:           2.6e-8, // 1.25 GB/s node / 32 ranks ≈ 39 MB/s per rank
		IdleWatts:    95,
		DynWatts:     210,
	}
}

// ByName returns the machine with the given name, compared without regard
// to case. It is the one machine lookup of the commands and the service
// wire.
func ByName(name string) (Machine, error) {
	for _, m := range All() {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q", name)
}

// All returns the four machines of the paper's evaluation.
func All() []Machine {
	return []Machine{Titan(), Stampede(), Clemson32(), Wisconsin8()}
}

// DefaultAlpha is the memory-access count per unit work for the paper's
// test application, the 7-point-stencil-like adaptive Laplacian matvec
// ("if the target application is a 7-point stencil operation, then α will
// be ∼8", §3.3).
const DefaultAlpha = 8.0
