package comm

// This file implements the collectives. Costs follow the standard models
// for tree/recursive-doubling algorithms, expressed with the paper's
// parameters: a collective on m bytes costs (ts + tw·m)·log2(p); the staged
// all-to-all costs ts + tw·(max bytes any rank moves) per stage, which is
// the congestion-avoiding exchange of §3.1 (refs [4, 34]).

// Allreduce combines the per-rank slices element-wise with op (an
// associative, commutative reduction) and returns the combined slice on
// every rank. All ranks must pass slices of the same length.
func Allreduce[T any](c *Comm, vals []T, elemBytes int, op func(a, b T) T) []T {
	m := float64(len(vals) * elemBytes)
	out := c.sync("allreduce", elemBytes, vals, wireCodec[T](c, "allreduce", false), func() float64 {
		w := c.w
		res := make([]T, len(vals))
		copy(res, w.slots[0].([]T))
		for r := 1; r < w.p; r++ {
			if len(w.slots[r].([]T)) != len(res) {
				panic(&UsageError{Op: "allreduce", Msg: "length mismatch across ranks"})
			}
		}
		for r := 1; r < w.p; r++ {
			rv := w.slots[r].([]T)
			for i := range res {
				res[i] = op(res[i], rv[i])
			}
		}
		w.scratch = res
		steps := log2p(w.p)
		for i := range w.bytesSent {
			w.bytesSent[i] += int64(m) * int64(steps)
			w.msgsSent[i] += int64(steps)
		}
		return (w.model.Ts + w.model.Tw*m) * steps
	}, func(scratch any) any {
		res := make([]T, len(scratch.([]T)))
		copy(res, scratch.([]T))
		return res
	})
	return out.([]T)
}

// AllreduceScalar reduces one value per rank.
func AllreduceScalar[T any](c *Comm, val T, elemBytes int, op func(a, b T) T) T {
	return Allreduce(c, []T{val}, elemBytes, op)[0]
}

// Allgather concatenates every rank's slice in rank order and returns a copy
// on every rank. Slices may have different lengths.
func Allgather[T any](c *Comm, vals []T, elemBytes int) []T {
	out := c.sync("allgather", elemBytes, vals, wireCodec[T](c, "allgather", false), func() float64 {
		w := c.w
		var total int
		for r := 0; r < w.p; r++ {
			total += len(w.slots[r].([]T))
		}
		res := make([]T, 0, total)
		for r := 0; r < w.p; r++ {
			res = append(res, w.slots[r].([]T)...)
		}
		w.scratch = res
		m := float64(total * elemBytes)
		steps := log2p(w.p)
		for i := range w.bytesSent {
			own := len(w.slots[i].([]T)) * elemBytes
			w.bytesSent[i] += int64(total*elemBytes - own)
			w.msgsSent[i] += int64(steps)
		}
		return w.model.Ts*steps + w.model.Tw*m
	}, func(scratch any) any {
		res := make([]T, len(scratch.([]T)))
		copy(res, scratch.([]T))
		return res
	})
	return out.([]T)
}

// AlltoallvOptions tunes the staged exchange.
type AlltoallvOptions struct {
	// StageWidth is the number of destinations each rank services per
	// stage; the exchange runs in ceil((p-1)/StageWidth) stages. Width 1 is
	// the fully staged, congestion-avoiding exchange of §3.1; width p-1
	// collapses to a single unstaged burst (the ablation baseline).
	StageWidth int
	// Sparse prices the exchange as a nonblocking point-to-point neighbor
	// exchange (MPI_Isend/Irecv): ts · (max messages per rank) + tw · (max
	// bytes per rank), with no per-stage latency over silent destination
	// pairs. Use it for halo refreshes, whose communication graph is the
	// sparse mesh adjacency rather than a dense permutation. StageWidth is
	// ignored when Sparse is set.
	Sparse bool
}

// Alltoallv delivers send[dst] from every rank to every destination and
// returns recv with recv[src] holding the data this rank received from src.
// The runs are views, in source order, of one allocation the receiver owns,
// each capped at its own length, so appending to one never writes into the
// next. recv[rank] is a copy of send[rank]: on a wire that run never
// leaves the rank, and each other run crosses once, from its sender
// through rank 0 to its one destination (the result is personal).
// The exchange is staged: stage s moves data to destinations at rank offsets
// s·width+1 .. (s+1)·width, bounding the number of in-flight messages, and
// each stage is priced at ts + tw·(max bytes moved by any rank in the
// stage).
func Alltoallv[T any](c *Comm, send [][]T, elemBytes int, opts AlltoallvOptions) [][]T {
	w := c.w
	if len(send) != w.p {
		panic(&UsageError{Op: "alltoallv", Msg: "send must have one slice per rank"})
	}
	width := opts.StageWidth
	if width <= 0 {
		width = 1
	}
	wire := wireCodec[T](c, "alltoallv", true)
	out := c.sync("alltoallv", elemBytes, send, wire, func() float64 {
		// The step is priced from run lengths alone, so rank 0 of a wire
		// world never decodes a run it only forwards.
		runBytes := func(src, dst int) int64 {
			if raw, ok := w.slots[src].([]rawRun); ok {
				return int64(raw[dst].n * elemBytes)
			}
			return int64(len(w.slots[src].([][]T)[dst]) * elemBytes)
		}
		w.scratch = nil
		var cost float64
		if opts.Sparse {
			var maxMsgs, maxBytes int64
			for r := 0; r < w.p; r++ {
				var msgs, bytes int64
				for dst := 0; dst < w.p; dst++ {
					if dst == r {
						continue
					}
					if n := runBytes(r, dst); n > 0 {
						msgs++
						bytes += n
					}
				}
				w.msgsSent[r] += msgs
				w.bytesSent[r] += bytes
				if msgs > maxMsgs {
					maxMsgs = msgs
				}
				if bytes > maxBytes {
					maxBytes = bytes
				}
			}
			return w.model.Ts*float64(maxMsgs) + w.model.Tw*float64(maxBytes)
		}
		// Stages over destination offsets 1..p-1 (offset 0 is the local
		// copy, which costs no network time).
		for lo := 1; lo < w.p; lo += width {
			hi := lo + width
			if hi > w.p {
				hi = w.p
			}
			var stageMax int64
			active := false
			for r := 0; r < w.p; r++ {
				var bytes int64
				for off := lo; off < hi; off++ {
					if n := runBytes(r, (r+off)%w.p); n > 0 {
						bytes += n
						w.msgsSent[r]++
					}
				}
				w.bytesSent[r] += bytes
				if bytes > stageMax {
					stageMax = bytes
				}
				if bytes > 0 {
					active = true
				}
			}
			if active {
				cost += w.model.Ts + w.model.Tw*float64(stageMax)
			}
		}
		return cost
	}, func(scratch any) any {
		// This rank's run from src: its own from send; off the wire, a
		// worker's from the column it was sent (scratch) and rank 0's from
		// a peer's split deposit; in process, a view of src's deposit.
		col, _ := scratch.([]rawRun)
		run := func(src int) ([]T, rawRun) {
			switch {
			case src == c.rank:
				return send[src], rawRun{}
			case col != nil:
				return nil, col[src]
			}
			if raw, ok := w.slots[src].([]rawRun); ok {
				return nil, raw[c.rank]
			}
			return w.slots[src].([][]T)[c.rank], rawRun{}
		}
		var total int
		for src := 0; src < w.p; src++ {
			vals, raw := run(src)
			total += len(vals) + raw.n
		}
		flat := make([]T, total)
		recv := make([][]T, w.p)
		off := 0
		for src := 0; src < w.p; src++ {
			vals, raw := run(src)
			n := copy(flat[off:], vals)
			if raw.n > 0 {
				n = raw.n
				wire.(*codec[T]).get(raw.b, flat[off:off+n])
			}
			recv[src] = flat[off : off+n : off+n]
			off += n
		}
		return recv
	})
	return out.([][]T)
}

// SumI64 is the addition reduction for Allreduce.
func SumI64(a, b int64) int64 { return a + b }

// SumF64 is the addition reduction over float64.
func SumF64(a, b float64) float64 { return a + b }
