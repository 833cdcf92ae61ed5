package comm

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Event is one span on a rank's virtual timeline: a stretch of local
// computation or a collective (which spans the synchronization wait plus
// the operation itself).
type Event struct {
	Rank  int
	Phase string // the rank's phase label when the span was charged
	Op    string // "compute" or the collective name
	Start float64
	End   float64
}

// Trace accumulates events from a traced run. Safe for concurrent use by
// the world's ranks.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

func (t *Trace) add(e Event) {
	if e.End <= e.Start {
		return // zero-cost spans add noise, not information
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns the recorded events sorted by start time then rank.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Event(nil), t.events...)
	slices.SortFunc(out, func(a, b Event) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	return out
}

// RenderTimeline writes an ASCII Gantt chart of the trace: one row per
// rank, time bucketed into width columns, each cell showing the dominant
// op in that bucket ('#' compute, '≈' collective wait, '.' idle).
func RenderTimeline(w io.Writer, trace *Trace, p int, width int) {
	if width <= 0 {
		width = 80
	}
	events := trace.Events()
	var tmax float64
	for _, e := range events {
		if e.End > tmax {
			tmax = e.End
		}
	}
	if tmax == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	// busy[rank][bucket] accumulates compute vs collective time.
	compute := make([][]float64, p)
	collective := make([][]float64, p)
	for r := 0; r < p; r++ {
		compute[r] = make([]float64, width)
		collective[r] = make([]float64, width)
	}
	dt := tmax / float64(width)
	for _, e := range events {
		if e.Rank >= p {
			continue
		}
		dst := compute
		if e.Op != "compute" {
			dst = collective
		}
		lo := int(e.Start / dt)
		hi := int(e.End / dt)
		for b := lo; b <= hi && b < width; b++ {
			blo := float64(b) * dt
			bhi := blo + dt
			overlap := min(e.End, bhi) - max(e.Start, blo)
			if overlap > 0 {
				dst[e.Rank][b] += overlap
			}
		}
	}
	fmt.Fprintf(w, "timeline: %g s across %d ranks ('#' compute, '≈' collective, '.' idle)\n", tmax, p)
	for r := 0; r < p; r++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "rank %3d |", r)
		for b := 0; b < width; b++ {
			switch {
			case compute[r][b] >= collective[r][b] && compute[r][b] > dt/4:
				sb.WriteRune('#')
			case collective[r][b] > dt/4:
				sb.WriteRune('≈')
			default:
				sb.WriteRune('.')
			}
		}
		sb.WriteByte('|')
		fmt.Fprintln(w, sb.String())
	}
}
