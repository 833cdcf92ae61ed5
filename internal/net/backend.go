package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optipart/internal/comm"
)

// ErrPeerDead is the cause inside the RankFailure raised when a peer's
// heartbeat goes silent past the timeout: the process is gone (killed,
// crashed, or partitioned away) as far as this world is concerned.
var ErrPeerDead = errors.New("net: peer heartbeat timed out")

// noSeq marks "no step in flight" in resume requests.
const noSeq = ^uint64(0)

// abortFrame is the one fAbort encoder: err in its wire form, sent from
// rank src.
func abortFrame(src int, err error) ([]byte, error) {
	return appendFrame(nil, &Frame{Type: fAbort, Src: int32(src)},
		func(b []byte) []byte { return appendFailure(b, err, false) })
}

// decodeAbort is the one fAbort decoder: the frame's failure rebuilt as
// the structured type the sender failed with.
func decodeAbort(f *Frame) error {
	failure, err := decodeFailure(f.Payload)
	if err != nil {
		return fmt.Errorf("net: rank %d sent an undecodable abort: %w", f.Src, err)
	}
	return failure
}

// core is the half of the rank-0 star protocol Root and Worker share: the
// failure funnel, the cancellable step state, the completed-step counter
// and the stop signal.
//
// Lock order: failMu and mu are never held together. failMu guards only
// the failure funnel (failf, pending) and is always released before any
// call that could take mu; mu guards the embedding side's step state. Keep
// it that way: the world's fail callback re-enters Cancel, which takes mu,
// so failing the world with mu held deadlocks. optipartlint's lockorder
// rule reports the two nestings when both are written in this package; it
// cannot follow the callback.
type core struct {
	rank, p  int // this side's rank (0 on the root) and the world size
	opts     Options
	gen      atomic.Uint64
	stop     chan struct{}
	stopOnce sync.Once

	failMu  sync.Mutex
	failf   func(error)
	pending error

	mu        sync.Mutex
	cond      *sync.Cond
	cancelled bool
	quiet     bool // a failure from elsewhere is being delivered: send no fAbort back
}

func (c *core) init(rank, p int, opts Options) {
	c.rank, c.p, c.opts = rank, p, opts.withDefaults()
	c.stop = make(chan struct{})
	c.cond = sync.NewCond(&c.mu)
}

// failWorld reports an asynchronous failure into the bound world; before a
// world is bound the error is parked and delivered at Bind.
func (c *core) failWorld(err error) {
	c.failMu.Lock()
	f := c.failf
	if f == nil && c.pending == nil {
		c.pending = err
	}
	c.failMu.Unlock()
	if f != nil {
		f(err)
	}
}

// failQuietly fails the world with a failure that did not originate here,
// so the Cancel it triggers sends no fAbort back; notify, if any, tells
// the peers first. The failure is recorded before any waiter wakes: a rank
// woken first could return from its program before its world knew it had
// failed.
func (c *core) failQuietly(err error, notify func()) {
	c.mu.Lock()
	c.quiet = true
	c.mu.Unlock()
	if notify != nil {
		notify()
	}
	c.failWorld(err)
	c.cancelLocal()
}

// cancelLocal marks the world cancelled and wakes every waiter. It reports
// whether this call cancelled a world whose failure originated here, the
// one case in which the peers are owed an fAbort.
func (c *core) cancelLocal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancelled {
		return false
	}
	c.cancelled = true
	c.cond.Broadcast()
	return !c.quiet
}

// cancel is both sides' Cancel: the first call marks the world cancelled
// and sends its reason, if any, to the peers as an fAbort through send.
func (c *core) cancel(reason error, send func(frame []byte)) {
	if !c.cancelLocal() || reason == nil {
		return
	}
	if frame, err := abortFrame(c.rank, reason); err == nil {
		send(frame)
	}
}

// comm.Transport implementation, shared by Root and Worker.

func (c *core) Wire() bool { return true }

func (c *core) Bind(fail func(error)) {
	c.failMu.Lock()
	c.failf = fail
	p := c.pending
	c.pending = nil
	c.failMu.Unlock()
	if p != nil {
		fail(p)
	}
}

func (c *core) Generation() uint64 { return c.gen.Load() }

// depositMsg is one worker deposit parked in the root's inbox, payload
// still encoded: it is decoded inside Step, whose collective knows the
// value's element type.
type depositMsg struct {
	seq     uint64
	op      string
	payload []byte
}

// Root is the rank-0 transport: it listens, admits p-1 workers, and runs
// every collective's compute closure against their framed deposits. The
// root is itself a live rank — its process calls comm.RunRank(0, ...) with
// this transport. Its mu guards the collective state machine below.
type Root struct {
	core
	ln stdnet.Listener

	links   []*link // index by rank; [0] unused
	inbox   []*depositMsg
	lastOp  []string
	lastSeq []uint64
	done    []bool
	joined  int
	welcome []byte // the encoded fWelcome once Announce has fixed the model
	step    uint64 // next collective index rank 0 will run

	// resultLog holds encoded fResult frames by seq for reconnect and
	// rejoin replay. Under Degrade it is pruned to the latest result (the
	// PR 6 behavior); under Restore it retains everything since the last
	// Checkpoint call, so a worker restored from that checkpoint can be
	// replayed forward to the live step.
	resultLog map[uint64][]byte

	// Membership epochs: inc[rank] is the accepted incarnation number.
	// Hellos with a lower incarnation are zombies and fenced off; a higher
	// incarnation is a respawned replacement (Restore policy only).
	inc            []uint64
	awaitingRejoin []bool
	rejoinTimer    []*time.Timer
	deathAt        []time.Time
	rec            comm.RecoveryStats

	mon   *Monitor
	calCh chan *Frame
}

// NewRoot listens on endpoint ("unix:/path" or "tcp:host:port") and starts
// admitting workers for a p-rank world. Call WaitReady to block until the
// world is fully joined, optionally Calibrate, then Announce the cost model
// before entering comm.RunRank.
func NewRoot(endpoint string, p int, opts Options) (*Root, error) {
	if p < 1 {
		return nil, fmt.Errorf("net: NewRoot with p=%d", p)
	}
	network, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		os.Remove(addr) // a stale socket file from a previous run
	}
	ln, err := stdnet.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	r := &Root{
		ln:             ln,
		links:          make([]*link, p),
		inbox:          make([]*depositMsg, p),
		lastOp:         make([]string, p),
		lastSeq:        make([]uint64, p),
		done:           make([]bool, p),
		resultLog:      make(map[uint64][]byte),
		inc:            make([]uint64, p),
		awaitingRejoin: make([]bool, p),
		rejoinTimer:    make([]*time.Timer, p),
		deathAt:        make([]time.Time, p),
		calCh:          make(chan *Frame, 4*p),
	}
	r.init(0, p, opts)
	r.mon = NewMonitor(r.opts.HeartbeatTimeout)
	go r.acceptLoop()
	go r.heartbeatLoop()
	return r, nil
}

// Addr returns the listener's address.
func (r *Root) Addr() stdnet.Addr { return r.ln.Addr() }

// waitUntil blocks until done (evaluated with r.mu held) reports true or
// timeout passes, whichever comes first.
func (r *Root) waitUntil(timeout time.Duration, done func() bool) {
	expired := false
	t := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		expired = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer t.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !expired && !done() {
		r.cond.Wait()
	}
}

// WaitReady blocks until all p-1 workers have joined. If the rendezvous
// does not complete within timeout it fails with a structured *JoinTimeout
// naming the ranks that never connected.
func (r *Root) WaitReady(timeout time.Duration) error {
	r.waitUntil(timeout, func() bool { return r.joined >= r.p-1 || r.cancelled })
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.joined < r.p-1 {
		jt := &JoinTimeout{P: r.p, Joined: r.joined, Timeout: timeout}
		for rank := 1; rank < r.p; rank++ {
			if r.links[rank] == nil {
				jt.Missing = append(jt.Missing, rank)
			}
		}
		return jt
	}
	return nil
}

// broadcast writes one encoded frame to every joined worker. A write error
// is not a verdict on the rank: the worker may be mid-reconnect, and admit
// replays what it is owed.
func (r *Root) broadcast(frame []byte) {
	r.mu.Lock()
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	for _, l := range links[1:] {
		if l != nil {
			l.writeRaw(frame)
		}
	}
}

// Announce fixes the world's cost model and releases the joined workers
// into their rank programs (they block in Dial until the welcome carrying
// the model arrives).
func (r *Root) Announce(model comm.CostModel) {
	welcome, err := appendFrame(nil, &Frame{Type: fWelcome},
		welcomeBody{P: r.p, Tc: model.Tc, Ts: model.Ts, Tw: model.Tw}.append)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.welcome = welcome
	r.mu.Unlock()
	r.broadcast(welcome)
}

// Drain waits for every worker's fDone (clean rank-program exit), bounding
// the wait; use it before Close so final results are not torn mid-read.
func (r *Root) Drain(timeout time.Duration) {
	r.waitUntil(timeout, func() bool {
		for rank := 1; rank < r.p; rank++ {
			if !r.done[rank] && !r.mon.Dead(rank) {
				return false
			}
		}
		return true
	})
}

// Close tears the transport down: the listener, every worker connection,
// and the background loops.
func (r *Root) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for rank, t := range r.rejoinTimer {
		if t != nil {
			t.Stop()
			r.rejoinTimer[rank] = nil
		}
	}
	for _, l := range r.links {
		if l != nil {
			l.close()
		}
	}
}

func (r *Root) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.admit(conn)
	}
}

// admit performs the server side of the handshake: read the hello, attach
// (or re-attach) the rank's link, and replay the welcome and any owed
// result for a reconnecting worker.
func (r *Root) admit(conn stdnet.Conn) {
	conn.SetReadDeadline(time.Now().Add(r.opts.IOTimeout))
	f, err := ReadFrame(conn)
	if err != nil || f.Type != fHello {
		conn.Close()
		return
	}
	hb, err := decodeHello(f.Payload)
	if err != nil || hb.Rank < 1 || hb.Rank >= r.p || hb.P != r.p {
		conn.Close()
		return
	}
	rank := hb.Rank
	redial := true
	r.mu.Lock()
	switch {
	case hb.Inc < r.inc[rank]:
		// A zombie of a fenced-off incarnation: a replacement has already
		// been admitted in its place.
		r.mu.Unlock()
		conn.Close()
		return
	case hb.Inc > r.inc[rank]:
		// A respawned replacement. Only a Restore-policy world readmits
		// one, and never for a rank whose program already finished.
		if r.opts.OnFailure != Restore || r.done[rank] {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.inc[rank] = hb.Inc
		if !r.awaitingRejoin[rank] {
			// The replacement beat the heartbeat to its predecessor's
			// death (a supervisor respawns well inside HeartbeatTimeout):
			// the death is booked here, dated from the last frame the
			// predecessor sent, and no respawn is requested.
			r.rec.Deaths++
			r.awaitingRejoin[rank] = true
			r.deathAt[rank] = r.mon.lastHeard(rank, time.Now())
		}
		r.completeRejoinLocked(rank)
		redial = false
	default:
		if r.mon.Dead(rank) || r.done[rank] {
			if r.opts.OnFailure != Restore || !r.awaitingRejoin[rank] {
				// An evicted rank does not resurrect into a world that
				// already declared it dead; under Degrade recovery happens
				// in a new world.
				r.mu.Unlock()
				conn.Close()
				return
			}
			// The same incarnation came back inside the rejoin window (a
			// network partition, not a process death).
			r.completeRejoinLocked(rank)
		}
	}
	l := r.links[rank]
	if l == nil {
		l = newLink(conn, r.opts)
		r.links[rank] = l
		r.joined++
	} else {
		l.replace(conn)
		if redial {
			r.rec.Redials++
		}
	}
	replay := r.loggedLocked(hb.Resume)
	for _, buf := range replay {
		r.rec.RestoredBytes += int64(len(buf))
	}
	if r.welcome != nil {
		replay = append([][]byte{r.welcome}, replay...)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.mon.Touch(rank, time.Now())
	for _, buf := range replay {
		l.writeRaw(buf)
	}
	go r.reader(rank, conn, l)
}

// reader drains frames from one worker connection. It exits when the
// connection breaks or is superseded by a reconnect; rank death is the
// heartbeat monitor's call, not the reader's.
func (r *Root) reader(rank int, conn stdnet.Conn, l *link) {
	for {
		conn.SetReadDeadline(time.Now().Add(r.opts.IOTimeout))
		f, err := ReadFrame(conn)
		if err != nil {
			if isTimeout(err) && l.current() == conn {
				continue
			}
			return
		}
		r.mon.Touch(rank, time.Now()) // any frame, pongs included, is liveness
		switch f.Type {
		case fDeposit:
			r.mu.Lock()
			if f.Seq >= r.step { // duplicates of completed steps are replay noise
				r.inbox[rank] = &depositMsg{seq: f.Seq, op: f.Op, payload: f.Payload}
				r.lastOp[rank] = f.Op
				r.lastSeq[rank] = f.Seq
				r.cond.Broadcast()
			}
			r.mu.Unlock()
		case fDone:
			r.mu.Lock()
			r.done[rank] = true
			r.cond.Broadcast()
			r.mu.Unlock()
			r.mon.Forget(rank)
		case fAbort:
			// The world's failure reaches Cancel, which relays the abort to
			// every worker; the sender has already cancelled and ignores
			// the echo.
			r.failWorld(decodeAbort(f))
		case fCalEcho:
			select {
			case r.calCh <- f:
			default:
			}
		}
	}
}

// heartbeatLoop pings every worker each interval and escalates silence
// past the timeout into a structured RankFailure.
func (r *Root) heartbeatLoop() {
	ticker := time.NewTicker(r.opts.HeartbeatInterval)
	defer ticker.Stop()
	ping, _ := AppendFrame(nil, &Frame{Type: fPing})
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.broadcast(ping)
			for _, rank := range r.mon.Expired(time.Now()) {
				r.mu.Lock()
				if r.opts.OnFailure == Restore {
					r.deathEventLocked(rank)
					r.mu.Unlock()
					continue
				}
				rf := r.lostLocked(rank, ErrPeerDead)
				r.cond.Broadcast()
				r.mu.Unlock()
				r.failWorld(rf)
			}
		}
	}
}

// lostLocked (r.mu held) is the RankFailure blaming a dead rank, naming the
// last collective it deposited for.
func (r *Root) lostLocked(rank int, cause error) *comm.RankFailure {
	op := r.lastOp[rank]
	coll := -1
	if op != "" {
		coll = int(r.lastSeq[rank])
	}
	return &comm.RankFailure{Rank: rank, Op: op, Phase: "main", Collective: coll, Err: cause}
}

func (r *Root) Depart(int) {}

func (r *Root) Cancel(reason error) { r.cancel(reason, r.broadcast) }

// Step runs one collective on the root: wait for every worker's deposit of
// this step, verify the signatures, install the remote clocks and values,
// run the compute closure, broadcast the result and end clock, consume.
func (r *Root) Step(st *comm.StepState) any {
	seq := r.step
	r.mu.Lock()
	for {
		if r.cancelled {
			r.mu.Unlock()
			st.Abort(nil)
		}
		ready := true
		var departed []int
		for rank := 1; rank < r.p; rank++ {
			in := r.inbox[rank]
			if in != nil && in.seq == seq {
				continue
			}
			ready = false
			if r.done[rank] {
				if r.opts.OnFailure == Restore {
					// A rank that drained out mid-campaign is a death under
					// Restore: hold the step open for its replacement.
					r.deathEventLocked(rank)
				} else {
					departed = append(departed, rank)
				}
			}
		}
		// While a quiet failure is in flight, a departure is its echo (a
		// worker leaving on fShutdown), not a second failure.
		if len(departed) > 0 && !r.quiet {
			r.mu.Unlock()
			st.Abort(&comm.AbandonedError{Waiter: 0, Op: st.Op(), Departed: departed})
		}
		if ready {
			break
		}
		r.cond.Wait()
	}
	deposits := make([]*depositMsg, r.p)
	copy(deposits, r.inbox)
	r.mu.Unlock()

	// Signature check from the frame headers alone — on a mismatch the
	// bodies may not even decode (the types registered here follow this
	// rank's collective, not the peers').
	for rank := 1; rank < r.p; rank++ {
		if deposits[rank].op != st.Op() {
			st.Abort(r.mismatch(st, deposits))
		}
	}
	for rank := 1; rank < r.p; rank++ {
		db, err := decodeDeposit(deposits[rank].payload)
		if err == nil && db.ElemBytes != st.ElemBytes() {
			st.Abort(r.mismatch(st, deposits))
		}
		if err == nil {
			err = st.SetRemoteBytes(rank, db.Clock, db.Phase, db.Value)
		}
		if err != nil {
			st.Abort(fmt.Errorf("net: rank %d deposit for %s undecodable: %w", rank, st.Op(), err))
		}
	}
	st.SetLocalDeposit()
	cost := st.ComputeCost()
	end := st.FinishStep(cost)

	frame, err := appendFrame(nil, &Frame{Type: fResult, Seq: seq, Op: st.Op()},
		func(b []byte) []byte { return st.AppendScratch(resultBody{End: end}.append(b)) })
	if err != nil {
		st.Abort(fmt.Errorf("net: result for %s unencodable: %w", st.Op(), err))
	}

	r.mu.Lock()
	r.resultLog[seq] = frame
	if r.opts.OnFailure != Restore {
		// Degrade worlds only ever replay the latest result to a
		// reconnecting worker; Restore worlds keep the log back to the last
		// checkpoint so a restored incarnation can be caught up.
		for k := range r.resultLog {
			if k != seq {
				delete(r.resultLog, k)
			}
		}
	}
	for rank := 1; rank < r.p; rank++ {
		r.inbox[rank] = nil
	}
	r.step = seq + 1
	r.mu.Unlock()
	r.broadcast(frame)
	r.gen.Add(1)
	return st.Consume()
}

// mismatch reconstructs the in-process MismatchError from the root's view:
// its own signature plus each worker's framed op (element sizes where the
// bodies decode).
func (r *Root) mismatch(st *comm.StepState, deposits []*depositMsg) error {
	calls := make([]comm.SigCall, r.p)
	calls[0] = comm.SigCall{Rank: 0, Op: st.Op(), ElemBytes: st.ElemBytes()}
	for rank := 1; rank < r.p; rank++ {
		calls[rank] = comm.SigCall{Rank: rank, Op: deposits[rank].op}
		if db, err := decodeDeposit(deposits[rank].payload); err == nil {
			calls[rank].ElemBytes = db.ElemBytes
		}
	}
	return &comm.MismatchError{Step: int(r.step), Calls: calls}
}

// Worker is the transport of one non-root rank: a single framed connection
// to the root, a reader goroutine answering heartbeats and collecting
// results, and reconnect-with-backoff when the connection breaks. Its mu
// guards the step state below.
type Worker struct {
	core
	inc           uint64 // incarnation number carried in every hello
	network, addr string
	model         comm.CostModel
	link          *link

	results    map[uint64]*Frame // parked results by seq (replay can arrive in bursts)
	awaiting   uint64            // seq of the result Step is blocked on; noSeq if none
	pendingDep []byte            // encoded deposit frame of the in-flight step
	lastOpName string
	lastRoot   atomic.Int64 // unix nanoseconds of the last frame from the root
}

// ResumeNone marks a fresh join in DialResume: no owed results to replay.
const ResumeNone = noSeq

// errDialStopped ends a dial loop whose worker was closed or cancelled.
var errDialStopped = errors.New("net: dial stopped: worker closed or cancelled")

// Dial connects rank to the root at endpoint, sends the hello, and blocks —
// answering heartbeats and calibration probes — until the root's welcome
// releases the world. The returned Worker carries the announced cost model.
func Dial(endpoint string, rank, p int, opts Options) (*Worker, error) {
	return DialResume(endpoint, rank, p, ResumeNone, 0, opts)
}

// DialResume is Dial for a restored incarnation: resume is the collective
// sequence the worker's checkpoint was taken at (the first result it needs
// replayed; ResumeNone for a fresh join), and inc is its incarnation number
// — a Restore-policy root admits a rejoin only with an incarnation strictly
// above the one it fenced off. The transport's collective counter starts at
// resume, so the restored rank program's collectives line up with the live
// world's sequence numbers.
func DialResume(endpoint string, rank, p int, resume, inc uint64, opts Options) (*Worker, error) {
	if rank < 1 || rank >= p {
		return nil, fmt.Errorf("net: Dial with rank=%d p=%d (rank 0 is the root)", rank, p)
	}
	network, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		inc:     inc,
		network: network, addr: addr,
		awaiting: noSeq,
		results:  make(map[uint64]*Frame),
	}
	w.init(rank, p, opts)
	if resume != ResumeNone {
		w.gen.Store(resume)
	}
	deadline := time.Now().Add(DefaultDialTimeout)
	conn, err := w.dial(-1, func(int) bool { return time.Now().After(deadline) },
		func(conn stdnet.Conn) error { return w.hello(conn, resume) })
	if err != nil {
		return nil, err
	}
	w.link = newLink(conn, w.opts)
	model, err := w.awaitWelcome(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	w.model = model
	w.lastRoot.Store(time.Now().UnixNano())
	go w.reader(conn)
	return w, nil
}

// Model returns the cost model the root announced (possibly calibrated).
func (w *Worker) Model() comm.CostModel { return w.model }

// Close tears down the connection and the reader.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.link.close()
	w.cancelLocal()
}

// dial is the one dial loop to the root, under the rank-seeded backoff: it
// waits the backoff's delay before attempt k ≥ 0 (a fresh join starts at
// attempt -1, with no wait), hands each connection to join, and returns
// the first one join accepts. After a failed attempt it gives up with the
// last error once giveUp says so; a close or cancellation during a wait
// stops it with errDialStopped.
func (w *Worker) dial(first int, giveUp func(attempt int) bool, join func(stdnet.Conn) error) (stdnet.Conn, error) {
	bo := comm.Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: int64(w.rank)}
	for attempt := first; ; attempt++ {
		if attempt >= 0 {
			select {
			case <-w.stop:
				return nil, errDialStopped
			case <-time.After(bo.Delay(attempt)):
			}
			w.mu.Lock()
			cancelled := w.cancelled
			w.mu.Unlock()
			if cancelled {
				return nil, errDialStopped
			}
		}
		conn, err := stdnet.DialTimeout(w.network, w.addr, DefaultBackoffMax)
		if err == nil {
			if err = join(conn); err == nil {
				return conn, nil
			}
			conn.Close()
		}
		if giveUp(attempt) {
			return nil, fmt.Errorf("net: rank %d dial %s %s: %w", w.rank, w.network, w.addr, err)
		}
	}
}

func (w *Worker) hello(conn stdnet.Conn, resume uint64) error {
	frame, err := appendFrame(nil, &Frame{Type: fHello, Src: int32(w.rank)},
		helloBody{Rank: w.rank, P: w.p, Resume: resume, Inc: w.inc}.append)
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(w.opts.IOTimeout))
	_, err = conn.Write(frame)
	return err
}

// awaitWelcome services the pre-world handshake: the root may calibrate
// (fCalReq echoes) and heartbeat (fPing) before announcing the model.
func (w *Worker) awaitWelcome(conn stdnet.Conn) (comm.CostModel, error) {
	overall := time.Now().Add(DefaultDialTimeout + 6*w.opts.IOTimeout)
	for {
		conn.SetReadDeadline(time.Now().Add(w.opts.IOTimeout))
		f, err := ReadFrame(conn)
		if err != nil {
			if isTimeout(err) && time.Now().Before(overall) {
				continue
			}
			return comm.CostModel{}, fmt.Errorf("net: rank %d handshake: %w", w.rank, err)
		}
		if f.Type != fWelcome {
			if err := w.control(f); err != nil {
				return comm.CostModel{}, err
			}
			continue
		}
		wb, err := decodeWelcome(f.Payload)
		if err != nil {
			return comm.CostModel{}, err
		}
		if wb.P != w.p {
			return comm.CostModel{}, fmt.Errorf("net: rank %d joined a p=%d world expecting p=%d", w.rank, wb.P, w.p)
		}
		return comm.CostModel{Tc: wb.Tc, Ts: wb.Ts, Tw: wb.Tw}, nil
	}
}

// control answers the root's control frames, the same before and after
// the welcome: pings and calibration probes are echoed, and an fAbort or
// fShutdown returns the world failure it carries. Other frames return nil.
func (w *Worker) control(f *Frame) error {
	switch f.Type {
	case fPing:
		w.link.write(&Frame{Type: fPong, Src: int32(w.rank)})
	case fCalReq:
		w.link.write(&Frame{Type: fCalEcho, Src: int32(w.rank), Seq: f.Seq, Payload: f.Payload})
	case fAbort:
		return decodeAbort(f)
	case fShutdown:
		return &ShutdownError{Reason: string(f.Payload)}
	}
	return nil
}

// reader drains frames from the root: heartbeats are answered inline,
// results are parked for Step, aborts tear the world down, and a broken or
// silent connection enters the reconnect path.
func (w *Worker) reader(conn stdnet.Conn) {
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(w.opts.IOTimeout))
		f, err := ReadFrame(conn)
		if err != nil {
			if isTimeout(err) && time.Since(time.Unix(0, w.lastRoot.Load())) < w.opts.HeartbeatTimeout {
				continue
			}
			conn = w.reconnect()
			if conn == nil {
				return
			}
			continue
		}
		w.lastRoot.Store(time.Now().UnixNano())
		if f.Type != fResult {
			// A welcome here is a replay after a reconnect; the model is
			// already fixed, so control ignores it.
			if err := w.control(f); err != nil {
				w.failQuietly(err, nil)
			}
			continue
		}
		w.mu.Lock()
		if f.Seq >= w.gen.Load() {
			w.results[f.Seq] = f
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// reconnect re-dials the root with exponential backoff and jitter. On
// success the in-flight deposit is replayed (the root deduplicates) and
// the owed result is replayed by the root's admit path. Exhausting the
// retry cap escalates to a structured LinkFailure.
func (w *Worker) reconnect() stdnet.Conn {
	var dep []byte
	conn, err := w.dial(0, func(attempt int) bool { return attempt+1 >= DefaultMaxRetries },
		func(conn stdnet.Conn) error {
			w.mu.Lock()
			resume := w.awaiting
			dep = w.pendingDep
			w.mu.Unlock()
			return w.hello(conn, resume)
		})
	if err == nil {
		w.link.replace(conn)
		if dep != nil {
			w.link.writeRaw(dep)
		}
		return conn
	}
	if !errors.Is(err, errDialStopped) {
		w.mu.Lock()
		op, seq := w.lastOpName, w.awaiting
		w.mu.Unlock()
		w.failQuietly(&comm.LinkFailure{
			Src: w.rank, Dst: 0, Op: op, Seq: seq,
			Attempts: DefaultMaxRetries, Cap: DefaultMaxRetries,
		}, nil)
	}
	return nil
}

func (w *Worker) Depart(int) {
	w.link.write(&Frame{Type: fDone, Src: int32(w.rank)})
}

func (w *Worker) Cancel(reason error) {
	w.cancel(reason, func(frame []byte) { w.link.writeRaw(frame) })
}

// Step runs one collective on a worker: frame the deposit to the root,
// block until the matching result arrives (or the world is cancelled),
// install the scratch and the authoritative end clock, consume.
func (w *Worker) Step(st *comm.StepState) any {
	seq := w.gen.Load()
	frame, err := appendFrame(nil, &Frame{Type: fDeposit, Src: int32(w.rank), Seq: seq, Op: st.Op()},
		func(b []byte) []byte {
			head := depositBody{ElemBytes: st.ElemBytes(), Clock: st.LocalClock(), Phase: st.LocalPhase()}
			return st.AppendDeposit(head.append(b))
		})
	if err != nil {
		st.Abort(fmt.Errorf("net: rank %d deposit for %s unencodable: %w", w.rank, st.Op(), err))
	}
	w.mu.Lock()
	w.awaiting, w.lastOpName, w.pendingDep = seq, st.Op(), frame
	w.mu.Unlock()
	// A write error is left to the reader's reconnect path, which replays
	// the cached deposit frame.
	w.link.writeRaw(frame)

	w.mu.Lock()
	for {
		if w.cancelled {
			w.mu.Unlock()
			st.Abort(nil)
		}
		if w.results[seq] != nil {
			break
		}
		w.cond.Wait()
	}
	rf := w.results[seq]
	delete(w.results, seq)
	w.awaiting = noSeq
	w.pendingDep = nil
	w.mu.Unlock()

	res, err := decodeResult(rf.Payload)
	if err == nil {
		err = st.SetScratchBytes(res.Scratch)
	}
	if err != nil {
		st.Abort(fmt.Errorf("net: rank %d result for %s undecodable: %w", w.rank, st.Op(), err))
	}
	st.ApplyClock(res.End)
	w.gen.Add(1)
	return st.Consume()
}
