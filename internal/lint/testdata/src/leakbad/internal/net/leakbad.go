// Package net is a goroutineleak fixture. Its synthetic import path ends
// in internal/net, so the nondeterminism goroutine rule stays out of the
// way and the leak rule is what speaks: every go statement below spawns a
// loop with no reachable exit — no return, no break, no stop signal — so
// the goroutine outlives any Close the package could offer.
package net

type pump struct {
	frames chan []byte
	seen   int
}

// run loops over a select with no stop arm and no return: closing frames
// just makes the receive yield zero values forever.
func (p *pump) run() {
	for {
		select {
		case f := <-p.frames:
			p.seen += len(f)
		}
	}
}

func start(p *pump) {
	go p.run() // want "run runs an unconditional loop \(line 16\) with no reachable exit"
}

// spin busy-loops in a literal with nothing that could leave the loop.
func spin(tick func()) {
	go func() { // want "goroutine runs an unconditional loop \(line 31\) with no reachable exit"
		for {
			tick()
		}
	}()
}

// nested only ever breaks its inner loop: the outer loop — the one the
// goroutine lives in — has no exit.
func nested(work []int) {
	go func() { // want "goroutine runs an unconditional loop \(line 41\) with no reachable exit"
		for {
			for _, w := range work {
				if w == 0 {
					break
				}
			}
		}
	}()
}

// root.beat is the heartbeat shape the rule was kept for: the select lost
// its stop arm, so closing the root stops the pings but never the loop.
type root struct {
	ticks <-chan struct{}
	stop  chan struct{}
	pings int
}

func (r *root) beat() {
	for {
		select {
		case <-r.ticks:
			r.pings++
		}
	}
}

func listen(r *root) {
	go r.beat() // want "beat runs an unconditional loop \(line 60\) with no reachable exit"
}
