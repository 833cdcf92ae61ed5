package net

import (
	"bytes"
	"encoding/gob"
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

// gob-encoded frame bodies. A fresh encoder per frame keeps the streams
// stateless, so a reconnected connection needs no codec resync.
type helloBody struct {
	Rank   int
	P      int
	Resume uint64 // seq of the first result the worker is still owed; noSeq if none
	Inc    uint64 // incarnation number; respawned replacements join with a higher one
}

type welcomeBody struct {
	P          int
	Tc, Ts, Tw float64 // the world's (possibly calibrated) cost model
}

type depositBody struct {
	ElemBytes int
	Clock     float64
	Phase     string
	Value     any
}

type resultBody struct {
	End     float64
	Scratch any
}

// wireFailure is the flattened form of the comm error vocabulary, so a
// failure detected on one process is reconstructed as the same structured
// type on every other.
type wireFailure struct {
	Kind       string // "rank", "link", "mismatch", "abandoned", "shutdown", "generic"
	Rank       int
	Op         string
	Phase      string
	Collective int
	Src, Dst   int
	Seq        uint64
	Attempts   int
	Cap        int
	Step       int
	Calls      []comm.SigCall
	Waiter     int
	Departed   []int
	Msg        string
}

func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeBody(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

func encodeFailure(err error) wireFailure {
	switch e := err.(type) {
	case *comm.RankFailure:
		return wireFailure{Kind: "rank", Rank: e.Rank, Op: e.Op, Phase: e.Phase,
			Collective: e.Collective, Msg: fmt.Sprint(e.Err)}
	case *comm.LinkFailure:
		return wireFailure{Kind: "link", Src: e.Src, Dst: e.Dst, Op: e.Op,
			Seq: e.Seq, Attempts: e.Attempts, Cap: e.Cap}
	case *comm.MismatchError:
		return wireFailure{Kind: "mismatch", Step: e.Step, Calls: e.Calls}
	case *comm.AbandonedError:
		return wireFailure{Kind: "abandoned", Waiter: e.Waiter, Op: e.Op, Departed: e.Departed}
	case *ShutdownError:
		return wireFailure{Kind: "shutdown", Msg: e.Reason}
	default:
		return wireFailure{Kind: "generic", Msg: fmt.Sprint(err)}
	}
}

func decodeFailure(wf wireFailure) error {
	switch wf.Kind {
	case "rank":
		return &comm.RankFailure{Rank: wf.Rank, Op: wf.Op, Phase: wf.Phase,
			Collective: wf.Collective, Err: errors.New(wf.Msg)}
	case "link":
		return &comm.LinkFailure{Src: wf.Src, Dst: wf.Dst, Op: wf.Op,
			Seq: wf.Seq, Attempts: wf.Attempts, Cap: wf.Cap}
	case "mismatch":
		return &comm.MismatchError{Step: wf.Step, Calls: wf.Calls}
	case "abandoned":
		return &comm.AbandonedError{Waiter: wf.Waiter, Op: wf.Op, Departed: wf.Departed}
	case "shutdown":
		return &ShutdownError{Reason: wf.Msg}
	default:
		return errors.New(wf.Msg)
	}
}

// depositMsg is one worker deposit parked in the root's inbox, payload
// still encoded: it is decoded inside Step, after the root's own collective
// entry has registered the value's concrete type with gob.
type depositMsg struct {
	seq     uint64
	op      string
	payload []byte
}

// Root is the rank-0 transport: it listens, admits p-1 workers, and runs
// every collective's compute closure against their framed deposits. The
// root is itself a live rank — its process calls comm.RunRank(0, ...) with
// this transport.
//
// Lock order: failMu and mu are never held together. failMu guards only
// the failure funnel (failf, pending) and is always released before any
// call that could take mu; mu guards the collective state machine. Keep it
// that way — nesting them in either direction starts a lock-order cycle
// (enforced by optipartlint's lockorder rule).
type Root struct {
	p    int
	opts Options
	ln   stdnet.Listener

	failMu  sync.Mutex
	failf   func(error)
	pending error

	mu          sync.Mutex
	cond        *sync.Cond
	links       []*link // index by rank; [0] unused
	inbox       []*depositMsg
	lastOp      []string
	lastSeq     []uint64
	done        []bool
	joined      int
	waitExpired bool
	announced   bool
	model       comm.CostModel
	cancelled   bool
	step        uint64 // next collective index rank 0 will run

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

	gen      atomic.Uint64
	mon      *Monitor
	calCh    chan *Frame
	stop     chan struct{}
	stopOnce sync.Once
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
	opts = opts.withDefaults()
	r := &Root{
		p:              p,
		opts:           opts,
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
		mon:            NewMonitor(opts.HeartbeatTimeout),
		calCh:          make(chan *Frame, 4*p),
		stop:           make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.acceptLoop()
	go r.heartbeatLoop()
	return r, nil
}

// Addr returns the listener's address.
func (r *Root) Addr() stdnet.Addr { return r.ln.Addr() }

// WaitReady blocks until all p-1 workers have joined. If the rendezvous
// does not complete within timeout it fails with a structured *JoinTimeout
// naming the ranks that never connected.
func (r *Root) WaitReady(timeout time.Duration) error {
	t := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.waitExpired = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer t.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.joined < r.p-1 && !r.waitExpired && !r.cancelled {
		r.cond.Wait()
	}
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

// Announce fixes the world's cost model and releases the joined workers
// into their rank programs (they block in Dial until the welcome carrying
// the model arrives).
func (r *Root) Announce(model comm.CostModel) {
	r.mu.Lock()
	r.model = model
	r.announced = true
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	payload, err := encodeBody(&welcomeBody{P: r.p, Tc: model.Tc, Ts: model.Ts, Tw: model.Tw})
	if err != nil {
		return
	}
	f := &Frame{Type: fWelcome, Src: 0, Payload: payload}
	for rank := 1; rank < r.p; rank++ {
		if l := links[rank]; l != nil {
			l.write(f)
		}
	}
}

// Drain waits for every worker's fDone (clean rank-program exit), bounding
// the wait; use it before Close so final results are not torn mid-read.
func (r *Root) Drain(timeout time.Duration) {
	t := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.waitExpired = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer t.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waitExpired = false
	for !r.waitExpired {
		all := true
		for rank := 1; rank < r.p; rank++ {
			if !r.done[rank] && !r.mon.Dead(rank) {
				all = false
			}
		}
		if all {
			return
		}
		r.cond.Wait()
	}
}

// Close tears the transport down: the listener, every worker connection,
// and the background loops.
func (r *Root) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.ln.Close()
	r.mu.Lock()
	for rank, t := range r.rejoinTimer {
		if t != nil {
			t.Stop()
			r.rejoinTimer[rank] = nil
		}
	}
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	for _, l := range links {
		if l != nil {
			l.close()
		}
	}
}

func (r *Root) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.stop:
			default:
			}
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
	var hb helloBody
	if decodeBody(f.Payload, &hb) != nil || hb.Rank < 1 || hb.Rank >= r.p || hb.P != r.p {
		conn.Close()
		return
	}
	rank := hb.Rank
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
		r.completeRejoinLocked(rank)
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
		r.rec.Redials++
	}
	announced, model := r.announced, r.model
	replay := r.loggedLocked(hb.Resume)
	for _, buf := range replay {
		r.rec.RestoredBytes += int64(len(buf))
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.mon.Touch(rank, time.Now())
	if announced {
		payload, err := encodeBody(&welcomeBody{P: r.p, Tc: model.Tc, Ts: model.Ts, Tw: model.Tw})
		if err == nil {
			l.write(&Frame{Type: fWelcome, Src: 0, Payload: payload})
		}
	}
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
		r.mon.Touch(rank, time.Now())
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
			var wf wireFailure
			if decodeBody(f.Payload, &wf) == nil {
				r.cancelLocal()
				r.failWorld(decodeFailure(wf))
			}
		case fCalEcho:
			select {
			case r.calCh <- f:
			default:
			}
		case fPong, fPing:
			// liveness only
		}
	}
}

// heartbeatLoop pings every worker each interval and escalates silence
// past the timeout into a structured RankFailure.
func (r *Root) heartbeatLoop() {
	ticker := time.NewTicker(r.opts.HeartbeatInterval)
	defer ticker.Stop()
	ping := &Frame{Type: fPing, Src: 0}
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.mu.Lock()
			links := append([]*link(nil), r.links...)
			r.mu.Unlock()
			for rank := 1; rank < r.p; rank++ {
				if l := links[rank]; l != nil {
					l.write(ping)
				}
			}
			for _, rank := range r.mon.Expired(time.Now()) {
				if r.opts.OnFailure == Restore {
					r.mu.Lock()
					r.deathEventLocked(rank)
					r.mu.Unlock()
					continue
				}
				r.mu.Lock()
				op := r.lastOp[rank]
				coll := -1
				if op != "" {
					coll = int(r.lastSeq[rank])
				}
				r.cond.Broadcast()
				r.mu.Unlock()
				r.failWorld(&comm.RankFailure{
					Rank: rank, Op: op, Phase: "main", Collective: coll, Err: ErrPeerDead,
				})
			}
		}
	}
}

// failWorld reports an asynchronous failure into the bound world; before a
// world is bound the error is parked and delivered at Bind.
func (r *Root) failWorld(err error) {
	r.failMu.Lock()
	f := r.failf
	if f == nil && r.pending == nil {
		r.pending = err
	}
	r.failMu.Unlock()
	if f != nil {
		f(err)
	}
}

// comm.Transport implementation.

func (r *Root) Wire() bool { return true }

func (r *Root) Bind(fail func(error)) {
	r.failMu.Lock()
	r.failf = fail
	p := r.pending
	r.pending = nil
	r.failMu.Unlock()
	if p != nil {
		fail(p)
	}
}

func (r *Root) Generation() uint64 { return r.gen.Load() }

func (r *Root) Depart(int) {}

// cancelLocal marks the world cancelled without broadcasting fAbort —
// used when the abort originated remotely and echoing it back would only
// bounce between peers.
func (r *Root) cancelLocal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancelled {
		return false
	}
	r.cancelled = true
	r.cond.Broadcast()
	return true
}

func (r *Root) Cancel(reason error) {
	if !r.cancelLocal() {
		return
	}
	if reason == nil {
		return
	}
	wf := encodeFailure(reason)
	payload, err := encodeBody(&wf)
	if err != nil {
		return
	}
	f := &Frame{Type: fAbort, Src: 0, Payload: payload}
	r.mu.Lock()
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	for rank := 1; rank < r.p; rank++ {
		if l := links[rank]; l != nil {
			l.write(f)
		}
	}
}

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
		if len(departed) > 0 {
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
		var db depositBody
		if err := decodeBody(deposits[rank].payload, &db); err != nil {
			st.Abort(fmt.Errorf("net: rank %d deposit for %s undecodable: %w", rank, st.Op(), err))
		}
		if db.ElemBytes != st.ElemBytes() {
			st.Abort(r.mismatch(st, deposits))
		}
		st.SetRemote(rank, db.Clock, db.Phase, db.Value)
	}
	st.SetLocalDeposit()
	cost := st.ComputeCost()
	end := st.FinishStep(cost)

	payload, err := encodeBody(&resultBody{End: end, Scratch: st.Scratch()})
	if err != nil {
		st.Abort(fmt.Errorf("net: result for %s unencodable: %w", st.Op(), err))
	}
	frame, err := AppendFrame(nil, &Frame{Type: fResult, Src: 0, Seq: seq, Op: st.Op(), Payload: payload})
	if err != nil {
		st.Abort(fmt.Errorf("net: result frame for %s: %w", st.Op(), err))
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
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	for rank := 1; rank < r.p; rank++ {
		if l := links[rank]; l != nil {
			// A write error is not a verdict on the rank: the worker may be
			// mid-reconnect, in which case admit replays this result.
			l.writeRaw(frame)
		}
	}
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
		var db depositBody
		if decodeBody(deposits[rank].payload, &db) == nil {
			calls[rank].ElemBytes = db.ElemBytes
		}
	}
	return &comm.MismatchError{Step: int(r.step), Calls: calls}
}

// Worker is the transport of one non-root rank: a single framed connection
// to the root, a reader goroutine answering heartbeats and collecting
// results, and reconnect-with-backoff when the connection breaks.
//
// Lock order: as on Root, failMu (failure funnel) and mu (step state) are
// disjoint and never nested; acquire at most one at a time.
type Worker struct {
	rank, p  int
	inc      uint64 // incarnation number carried in every hello
	opts     Options
	network  string
	addr     string
	model    comm.CostModel
	link     *link
	gen      atomic.Uint64
	stop     chan struct{}
	stopOnce sync.Once

	failMu  sync.Mutex
	failf   func(error)
	pending error

	mu         sync.Mutex
	cond       *sync.Cond
	results    map[uint64]*Frame // parked results by seq (replay can arrive in bursts)
	cancelled  bool
	awaiting   uint64 // seq of the result Step is blocked on; noSeq if none
	pendingDep []byte // encoded deposit frame of the in-flight step
	lastOpName string
	lastRoot   time.Time // last instant any frame arrived from the root
}

// ResumeNone marks a fresh join in DialResume: no owed results to replay.
const ResumeNone = noSeq

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
	opts = opts.withDefaults()
	w := &Worker{
		rank: rank, p: p, inc: inc, opts: opts,
		network: network, addr: addr,
		stop:     make(chan struct{}),
		awaiting: noSeq,
		results:  make(map[uint64]*Frame),
	}
	if resume != ResumeNone {
		w.gen.Store(resume)
	}
	w.cond = sync.NewCond(&w.mu)
	conn, err := w.dialRetry()
	if err != nil {
		return nil, err
	}
	w.link = newLink(conn, opts)
	if err := w.hello(conn, resume); err != nil {
		conn.Close()
		return nil, err
	}
	model, err := w.awaitWelcome(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	w.model = model
	w.sawRoot()
	go w.reader(conn)
	return w, nil
}

// Model returns the cost model the root announced (possibly calibrated).
func (w *Worker) Model() comm.CostModel { return w.model }

// Close tears down the connection and the reader.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.link.close()
	w.mu.Lock()
	w.cancelled = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *Worker) dialRetry() (stdnet.Conn, error) {
	bo := Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: int64(w.rank)}
	deadline := time.Now().Add(DefaultDialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := stdnet.DialTimeout(w.network, w.addr, DefaultBackoffMax)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("net: rank %d dial %s %s: %w", w.rank, w.network, w.addr, lastErr)
		}
		select {
		case <-w.stop:
			return nil, fmt.Errorf("net: rank %d dial aborted", w.rank)
		case <-time.After(bo.Delay(attempt)):
		}
	}
}

func (w *Worker) hello(conn stdnet.Conn, resume uint64) error {
	payload, err := encodeBody(&helloBody{Rank: w.rank, P: w.p, Resume: resume, Inc: w.inc})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(w.opts.IOTimeout))
	return WriteFrame(conn, &Frame{Type: fHello, Src: int32(w.rank), Payload: payload})
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
		switch f.Type {
		case fWelcome:
			var wb welcomeBody
			if err := decodeBody(f.Payload, &wb); err != nil {
				return comm.CostModel{}, err
			}
			if wb.P != w.p {
				return comm.CostModel{}, fmt.Errorf("net: rank %d joined a p=%d world expecting p=%d", w.rank, wb.P, w.p)
			}
			return comm.CostModel{Tc: wb.Tc, Ts: wb.Ts, Tw: wb.Tw}, nil
		case fPing:
			conn.SetWriteDeadline(time.Now().Add(w.opts.IOTimeout))
			WriteFrame(conn, &Frame{Type: fPong, Src: int32(w.rank)})
		case fCalReq:
			conn.SetWriteDeadline(time.Now().Add(w.opts.IOTimeout))
			WriteFrame(conn, &Frame{Type: fCalEcho, Src: int32(w.rank), Seq: f.Seq, Payload: f.Payload})
		case fAbort:
			var wf wireFailure
			if decodeBody(f.Payload, &wf) == nil {
				return comm.CostModel{}, decodeFailure(wf)
			}
			return comm.CostModel{}, fmt.Errorf("net: rank %d aborted during handshake", w.rank)
		case fShutdown:
			return comm.CostModel{}, &ShutdownError{Reason: string(f.Payload)}
		}
	}
}

func (w *Worker) sawRoot() {
	w.mu.Lock()
	w.lastRoot = time.Now()
	w.mu.Unlock()
}

func (w *Worker) rootSilence() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.lastRoot)
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
			if isTimeout(err) && w.rootSilence() < w.opts.HeartbeatTimeout {
				continue
			}
			conn = w.reconnect()
			if conn == nil {
				return
			}
			continue
		}
		w.sawRoot()
		switch f.Type {
		case fPing:
			w.link.write(&Frame{Type: fPong, Src: int32(w.rank)})
		case fCalReq:
			w.link.write(&Frame{Type: fCalEcho, Src: int32(w.rank), Seq: f.Seq, Payload: f.Payload})
		case fResult:
			w.mu.Lock()
			if f.Seq >= w.gen.Load() {
				w.results[f.Seq] = f
			}
			w.cond.Broadcast()
			w.mu.Unlock()
		case fAbort:
			var wf wireFailure
			if decodeBody(f.Payload, &wf) == nil {
				w.remoteAbort(decodeFailure(wf))
			}
		case fShutdown:
			w.remoteAbort(&ShutdownError{Reason: string(f.Payload)})
		case fWelcome:
			// replayed after a reconnect; the model is already fixed
		}
	}
}

// reconnect re-dials the root with exponential backoff and jitter. On
// success the in-flight deposit is replayed (the root deduplicates) and
// the owed result is replayed by the root's admit path. Exhausting the
// retry cap escalates to a structured LinkFailure.
func (w *Worker) reconnect() stdnet.Conn {
	bo := Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: int64(w.rank)}
	for attempt := 0; attempt < DefaultMaxRetries; attempt++ {
		select {
		case <-w.stop:
			return nil
		case <-time.After(bo.Delay(attempt)):
		}
		if w.isCancelled() {
			return nil
		}
		conn, err := stdnet.DialTimeout(w.network, w.addr, DefaultBackoffMax)
		if err != nil {
			continue
		}
		w.mu.Lock()
		resume := w.awaiting
		dep := w.pendingDep
		w.mu.Unlock()
		if err := w.hello(conn, resume); err != nil {
			conn.Close()
			continue
		}
		w.link.replace(conn)
		if dep != nil {
			w.link.writeRaw(dep)
		}
		return conn
	}
	w.mu.Lock()
	op, seq := w.lastOpName, w.awaiting
	w.mu.Unlock()
	w.remoteAbort(&comm.LinkFailure{
		Src: w.rank, Dst: 0, Op: op, Seq: seq,
		Attempts: DefaultMaxRetries, Cap: DefaultMaxRetries,
	})
	return nil
}

// remoteAbort tears the world down for a failure that did not originate in
// this rank's program — the cancellation is marked locally first so Cancel
// does not echo the abort back to the root.
func (w *Worker) remoteAbort(err error) {
	w.cancelLocal()
	w.failWorld(err)
}

func (w *Worker) failWorld(err error) {
	w.failMu.Lock()
	f := w.failf
	if f == nil && w.pending == nil {
		w.pending = err
	}
	w.failMu.Unlock()
	if f != nil {
		f(err)
	}
}

func (w *Worker) isCancelled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cancelled
}

func (w *Worker) cancelLocal() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancelled {
		return false
	}
	w.cancelled = true
	w.cond.Broadcast()
	return true
}

// comm.Transport implementation.

func (w *Worker) Wire() bool { return true }

func (w *Worker) Bind(fail func(error)) {
	w.failMu.Lock()
	w.failf = fail
	p := w.pending
	w.pending = nil
	w.failMu.Unlock()
	if p != nil {
		fail(p)
	}
}

func (w *Worker) Generation() uint64 { return w.gen.Load() }

func (w *Worker) Depart(int) {
	w.link.write(&Frame{Type: fDone, Src: int32(w.rank)})
}

func (w *Worker) Cancel(reason error) {
	if !w.cancelLocal() {
		return
	}
	if reason == nil {
		return
	}
	wf := encodeFailure(reason)
	payload, err := encodeBody(&wf)
	if err != nil {
		return
	}
	w.link.write(&Frame{Type: fAbort, Src: int32(w.rank), Payload: payload})
}

// Step runs one collective on a worker: frame the deposit to the root,
// block until the matching result arrives (or the world is cancelled),
// install the scratch and the authoritative end clock, consume.
func (w *Worker) Step(st *comm.StepState) any {
	w.mu.Lock()
	seq := w.gen.Load()
	w.awaiting = seq
	w.lastOpName = st.Op()
	w.mu.Unlock()

	payload, err := encodeBody(&depositBody{
		ElemBytes: st.ElemBytes(),
		Clock:     st.LocalClock(),
		Phase:     st.LocalPhase(),
		Value:     st.Deposit(),
	})
	if err != nil {
		st.Abort(fmt.Errorf("net: rank %d deposit for %s unencodable: %w", w.rank, st.Op(), err))
	}
	frame, err := AppendFrame(nil, &Frame{
		Type: fDeposit, Src: int32(w.rank), Seq: seq, Op: st.Op(), Payload: payload,
	})
	if err != nil {
		st.Abort(fmt.Errorf("net: rank %d deposit frame for %s: %w", w.rank, st.Op(), err))
	}
	w.mu.Lock()
	w.pendingDep = frame
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

	var res resultBody
	if err := decodeBody(rf.Payload, &res); err != nil {
		st.Abort(fmt.Errorf("net: rank %d result for %s undecodable: %w", w.rank, st.Op(), err))
	}
	st.SetScratch(res.Scratch)
	st.ApplyClock(res.End)
	w.gen.Add(1)
	return st.Consume()
}
