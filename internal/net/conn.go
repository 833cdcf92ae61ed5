package net

import (
	"fmt"
	stdnet "net"
	"strings"
	"sync"
	"time"
)

// Policy selects what the root does when a worker is declared dead
// mid-campaign.
type Policy int

const (
	// Degrade fails the world with a structured RankFailure so the driver
	// can shrink to the survivors and repartition — PR 6's behavior, and
	// the default.
	Degrade Policy = iota
	// Restore holds the world open for DefaultRejoinWait: a supervisor
	// respawns the dead worker, the replacement rejoins with a higher
	// incarnation number and a resume sequence from its checkpoint, and the
	// root replays the results it is owed. Only if no replacement arrives
	// in time does the world fail as under Degrade.
	Restore
)

func (p Policy) String() string {
	switch p {
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the -on-failure flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "degrade":
		return Degrade, nil
	case "restore":
		return Restore, nil
	}
	return Degrade, fmt.Errorf("net: unknown failure policy %q (want degrade or restore)", s)
}

// Options tunes the wire transport. The zero value means defaults, chosen
// so a loopback CI world detects a killed worker well inside a one-minute
// deadline while tolerating multi-second GC or scheduler pauses.
type Options struct {
	// IOTimeout is the per-operation read/write deadline on an established
	// connection. Reads renew it on every frame; heartbeats guarantee
	// frames keep flowing even when the world is between collectives.
	IOTimeout time.Duration
	// HeartbeatInterval is how often the root pings each worker (and the
	// longest a healthy link stays silent).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent before it is
	// declared dead. Must exceed HeartbeatInterval by enough slack to
	// absorb scheduling noise; the default is 10 intervals.
	HeartbeatTimeout time.Duration

	// OnFailure selects the root's reaction to a dead worker: Degrade
	// (default, fail the world with a structured error) or Restore (await a
	// respawned incarnation).
	OnFailure Policy
	// OnDeath, when non-nil, is invoked on its own goroutine each time the
	// root declares a rank dead under the Restore policy — the supervisor's
	// respawn trigger for drains the process exit alone would not surface.
	OnDeath func(rank int)
}

// Defaults for Options fields left zero.
const (
	DefaultIOTimeout         = 10 * time.Second
	DefaultHeartbeatInterval = 200 * time.Millisecond
)

// Fixed timings of the transport, the same in every deployment and test.
const (
	// DefaultDialTimeout bounds a worker's dial retries.
	DefaultDialTimeout = 5 * time.Second
	// DefaultMaxRetries caps reconnect attempts after a broken connection
	// before the link escalates to a structured failure, and
	// DefaultBackoffBase and DefaultBackoffMax bound the exponential
	// reconnect backoff.
	DefaultMaxRetries  = 5
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
	// DefaultRejoinWait bounds how long a Restore-policy root holds the
	// world open for a dead rank's replacement before failing as under
	// Degrade.
	DefaultRejoinWait = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.IOTimeout <= 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * o.HeartbeatInterval
	}
	return o
}

// SplitEndpoint parses the one endpoint grammar of the wire transport and
// of every command that binds or dials, "unix:/path.sock" or
// "tcp:host:port", into a net.Listen/net.Dial network and address.
// "tcp::port" means loopback (127.0.0.1), never every interface; an empty
// path or address is an error.
func SplitEndpoint(ep string) (network, addr string, err error) {
	network, addr, _ = strings.Cut(ep, ":")
	switch {
	case network != "unix" && network != "tcp":
		return "", "", fmt.Errorf("net: endpoint %q is not unix:/path or tcp:host:port", ep)
	case addr == "":
		return "", "", fmt.Errorf("net: endpoint %q has an empty %s address", ep, network)
	case network == "tcp" && strings.HasPrefix(addr, ":"):
		addr = "127.0.0.1" + addr
	}
	return network, addr, nil
}

// link is one framed connection with per-operation deadlines and a write
// lock (steps and heartbeat replies write from different goroutines).
type link struct {
	opts Options

	mu   sync.Mutex // guards conn swaps on reconnect
	conn stdnet.Conn

	wmu  sync.Mutex // serializes writers
	wbuf []byte     // reusable encode buffer
}

func newLink(conn stdnet.Conn, opts Options) *link {
	return &link{opts: opts, conn: conn}
}

func (l *link) current() stdnet.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// replace installs a reconnected conn and closes the old one.
func (l *link) replace(conn stdnet.Conn) {
	l.mu.Lock()
	old := l.conn
	l.conn = conn
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

func (l *link) close() {
	if c := l.current(); c != nil {
		c.Close()
	}
}

// write frames f to the current conn under the write deadline.
func (l *link) write(f *Frame) error {
	c := l.current()
	if c == nil {
		return fmt.Errorf("net: link closed")
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	buf, err := AppendFrame(l.wbuf[:0], f)
	if err != nil {
		return err
	}
	l.wbuf = buf
	if err := c.SetWriteDeadline(time.Now().Add(l.opts.IOTimeout)); err != nil {
		return err
	}
	_, err = c.Write(buf)
	return err
}

// writeRaw writes an already-encoded frame to the current conn under the
// write deadline — the path for frames encoded once and sent (or replayed)
// to many peers.
func (l *link) writeRaw(buf []byte) error {
	c := l.current()
	if c == nil {
		return fmt.Errorf("net: link closed")
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := c.SetWriteDeadline(time.Now().Add(l.opts.IOTimeout)); err != nil {
		return err
	}
	_, err := c.Write(buf)
	return err
}

// isTimeout reports whether err is a deadline expiry rather than a broken
// connection — the read loop treats expiry as "still waiting" and lets the
// heartbeat monitor decide liveness.
func isTimeout(err error) bool {
	ne, ok := err.(stdnet.Error)
	return ok && ne.Timeout()
}
