package mesh

import "optipart/internal/comm"

// Matrix is the communication matrix M of §5.5: M[i][j] = mij is the number
// of elements partition i needs read-only access to on partition j (the
// ghost/halo volume). Its number of non-zeros counts the messages exchanged
// per matvec; its total is the data volume.
type Matrix struct {
	P      int
	Counts []int64 // row-major: Counts[i*P+j] = mij
}

// At returns mij.
func (m *Matrix) At(i, j int) int64 { return m.Counts[i*m.P+j] }

// NNZ returns the number of non-zero entries: the total number of messages
// per ghost refresh (Figure 12, left/center).
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Counts {
		if v != 0 {
			n++
		}
	}
	return n
}

// TotalData returns the total number of elements exchanged per ghost
// refresh (Figure 12, right, divided by the iteration count).
func (m *Matrix) TotalData() int64 {
	var t int64
	for _, v := range m.Counts {
		t += v
	}
	return t
}

// MaxDegree returns the largest number of neighbor partitions any partition
// communicates with.
func (m *Matrix) MaxDegree() int {
	best := 0
	for i := 0; i < m.P; i++ {
		d := 0
		for j := 0; j < m.P; j++ {
			if m.At(i, j) != 0 {
				d++
			}
		}
		if d > best {
			best = d
		}
	}
	return best
}

// GatherMatrix assembles the global communication matrix from each rank's
// ghost row with one reduction.
func GatherMatrix(c *comm.Comm, g *Ghost) *Matrix {
	p := c.Size()
	row := make([]int64, p*p)
	copy(row[c.Rank()*p:], g.RecvCounts)
	return &Matrix{P: p, Counts: comm.Allreduce(c, row, 8, comm.SumI64)}
}
