package fem

import "optipart/internal/machine"

// Kernel characterizes an application for the performance model: how many
// memory accesses each element costs per operator application (the α of
// §3.3) and how many bytes each ghost element occupies on the wire. The
// paper's footnote 1 observes that the same mesh should be partitioned
// differently "e.g. for the Poisson equation vs the wave equation"; the
// kernel is exactly that application fingerprint.
type Kernel struct {
	Name string
	// Alpha is the memory-access count per element per application.
	Alpha float64
	// PayloadBytes is the wire size of one ghost element.
	PayloadBytes int
}

// Laplacian is the paper's test kernel: a 7-point-stencil-like adaptive
// Laplacian, α ≈ 8 (§3.3), trilinear nodal payload.
func Laplacian() Kernel {
	return Kernel{Name: "laplacian", Alpha: machine.DefaultAlpha, PayloadBytes: machine.GhostPayloadBytes}
}

// Wave is a leapfrog step of the second-order wave equation: the same
// Laplacian halo, but each element additionally reads the two previous time
// levels and writes the next, raising α.
func Wave() Kernel {
	return Kernel{Name: "wave", Alpha: 14, PayloadBytes: machine.GhostPayloadBytes}
}

// HighOrder models a high-order (p-refined) element kernel: dense local
// element applies push α up by an order of magnitude, and each ghost
// element carries a larger dof block.
func HighOrder() Kernel {
	return Kernel{Name: "high-order", Alpha: 96, PayloadBytes: 2 * machine.GhostPayloadBytes}
}

// MultiSpecies models a low-order multi-species advection flux exchange:
// almost no arithmetic per element, but every ghost element carries a wide
// block of species concentrations — the most communication-bound kernel.
func MultiSpecies() Kernel {
	return Kernel{Name: "multi-species", Alpha: 4, PayloadBytes: 4 * machine.GhostPayloadBytes}
}
