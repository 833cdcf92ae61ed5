// Command loadgen drives request load against the partitioning service and
// reports throughput, tail latency, and cache behaviour. It is the only
// out-of-process client of `optipartd -serve` (the CI live-server smoke) and
// the only open-loop driver; recorded service numbers come from the
// benchmark spine's service-hit and service-miss workloads (benchmark/),
// not from here.
//
// Two targets:
//
//	loadgen                              # in-process service (default)
//	loadgen -connect unix:/tmp/svc.sock  # a live `optipartd -serve`
//
// Two mixes (run both by default):
//
//   - hit: a fixed pool of -octrees distinct octrees is primed, then
//     requested round-robin — the steady-state memoized regime, ~100% cache
//     hits on the zero-allocation path.
//   - miss: every request perturbs the base octree with one unique deep
//     octant, so every canonical form is new — the compute-bound regime,
//     which also exercises admission and cache eviction.
//
// Two loops:
//
//   - closed (default): -conc workers each issue the next request as soon
//     as the previous completes; concurrency sweeps the -conc list.
//   - open: requests arrive on a fixed schedule at -rate per second
//     regardless of completions (queueing delay shows up in the tail).
//
// Output is `go test -bench`-format lines (with a pkg: header):
//
//	BenchmarkServiceLoad/mix=hit/conc=4  <n>  <avg> ns/op  <r> req/s  <p50> p50-ns/op  <p99> p99-ns/op  <h> hit-rate
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optipart"
	"optipart/internal/machine"
	wnet "optipart/internal/net"
	"optipart/internal/partition"
	"optipart/internal/service"
)

func main() {
	var (
		connect  = flag.String("connect", "", "drive a live `optipartd -serve` at this endpoint instead of an in-process service")
		mixes    = flag.String("mix", "hit,miss", "comma list of request mixes: hit (primed pool) and/or miss (every request unique)")
		concs    = flag.String("conc", "1,4,0", "comma list of closed-loop concurrencies (0 = GOMAXPROCS)")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
		duration = flag.Duration("duration", 2*time.Second, "measurement window per cell")
		n        = flag.Int("n", 5000, "keys per request octree")
		octrees  = flag.Int("octrees", 8, "distinct octrees in the hit-mix pool")
		ranks    = flag.Int("ranks", 8, "partitions per request")
		slots    = flag.Int("slots", 2, "in-process service: admission slots")
		mname    = flag.String("machine", "Clemson-32", "machine model: Titan, Stampede, Clemson-32, Wisconsin-8")
		mode     = flag.String("mode", "optipart", "partitioning mode: equal, flexible, optipart")
		tol      = flag.Float64("tol", 0.3, "tolerance for -mode flexible")
		seed     = flag.Int64("seed", 1, "octree generation seed")
		tenants  = flag.Int("tenants", 1, "spread workers across this many tenants (exercises fair admission)")
	)
	flag.Parse()

	if err := validateFlags(*rate, *duration, *n, *octrees, *ranks, *slots, *tenants); err != nil {
		fatal(err)
	}
	m, pmode, err := parseModel(*mname, *mode)
	if err != nil {
		fatal(err)
	}
	concList, err := parseConcs(*concs)
	if err != nil {
		fatal(err)
	}

	w := workload{
		n: *n, octrees: *octrees, ranks: *ranks, seed: *seed,
		machine: m, mode: pmode, tol: *tol, tenants: *tenants,
	}
	w.generate()

	fmt.Printf("goos: %s\ngoarch: %s\npkg: optipart/cmd/loadgen\n", runtime.GOOS, runtime.GOARCH)
	for _, mix := range strings.Split(*mixes, ",") {
		mix = strings.TrimSpace(mix)
		if mix != "hit" && mix != "miss" {
			fatal(fmt.Errorf("unknown mix %q (want hit or miss)", mix))
		}
		if *rate > 0 {
			runCell(&w, mix, 0, *rate, *duration, *connect, *slots)
			continue
		}
		for _, c := range concList {
			runCell(&w, mix, c, 0, *duration, *connect, *slots)
		}
	}
}

// workload owns the pre-generated octrees and renders requests. Generation
// happens before any timing starts.
type workload struct {
	n, octrees, ranks, tenants int
	seed                       int64
	machine                    optipart.Machine
	mode                       optipart.Mode
	tol                        float64

	pool   [][]optipart.Key // hit mix: fixed octree pool
	unique atomic.Uint64    // miss mix: next unique octant id
}

func (w *workload) generate() {
	rng := rand.New(rand.NewSource(w.seed))
	w.pool = make([][]optipart.Key, w.octrees)
	for i := range w.pool {
		w.pool[i] = optipart.RandomKeys(rng, w.n, 3, optipart.Normal, 2, 14)
	}
}

// request builds the i-th request of the given mix. The miss mix appends
// one unique deep octant to the base octree: level-18 anchors are below the
// generator's max level 14, so every canonical form is genuinely new.
func (w *workload) request(mix string, worker int, i uint64) optipart.ServiceRequest {
	keys := w.pool[int(i)%len(w.pool)]
	if mix == "miss" {
		id := w.unique.Add(1)
		const unit = 1 << (optipart.MaxLevel - 18)
		extra := optipart.Key{
			X:     uint32(id&0x3ffff) * unit,
			Y:     uint32((id>>18)&0x3ffff) * unit,
			Z:     uint32((id>>36)&0x3ffff) * unit,
			Level: 18,
		}
		keys = append(append(make([]optipart.Key, 0, len(keys)+1), keys...), extra)
	}
	return optipart.ServiceRequest{
		Tenant:    "tenant-" + strconv.Itoa(worker%w.tenants),
		Keys:      keys,
		CurveKind: optipart.Hilbert,
		Dim:       3,
		Ranks:     w.ranks,
		Mode:      w.mode,
		Tol:       w.tol,
		Machine:   w.machine,
	}
}

// client issues one request and reports whether it was a cache hit.
type client interface {
	do(req optipart.ServiceRequest) (bool, error)
	close()
}

type inprocClient struct{ svc *optipart.PartitionService }

func (c inprocClient) do(req optipart.ServiceRequest) (bool, error) {
	_, hit, err := c.svc.Do(req)
	return hit, err
}
func (c inprocClient) close() {}

// wireClient speaks the gob protocol over one connection (the protocol is
// strictly alternating, so every worker owns a connection).
type wireClient struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialWire(endpoint string) (*wireClient, error) {
	network, addr, err := wnet.SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

func (c *wireClient) do(req optipart.ServiceRequest) (bool, error) {
	wr := service.FromRequest(req)
	if err := c.enc.Encode(&wr); err != nil {
		return false, err
	}
	var resp optipart.ServiceWireResponse
	if err := c.dec.Decode(&resp); err != nil {
		return false, err
	}
	if resp.Err != "" {
		return false, fmt.Errorf("server: %s", resp.Err)
	}
	return resp.Hit, nil
}
func (c *wireClient) close() { c.conn.Close() }

// cell is one measured (mix, concurrency | rate) combination.
type cell struct {
	mu   sync.Mutex
	lat  []time.Duration
	hits int
	errs int
}

func (ce *cell) record(d time.Duration, hit bool, err error) {
	ce.mu.Lock()
	if err != nil {
		ce.errs++
	} else {
		ce.lat = append(ce.lat, d)
		if hit {
			ce.hits++
		}
	}
	ce.mu.Unlock()
}

func runCell(w *workload, mix string, conc int, rate float64, duration time.Duration, connect string, slots int) {
	var mkClient func() (client, error)
	var svc *optipart.PartitionService
	if connect != "" {
		mkClient = func() (client, error) { return dialWire(connect) }
	} else {
		svc = optipart.NewService(optipart.ServiceConfig{Slots: slots})
		defer svc.Close()
		mkClient = func() (client, error) { return inprocClient{svc: svc}, nil }
	}

	// Prime the hit pool so the measured window is the steady state.
	prime, err := mkClient()
	if err != nil {
		fatal(err)
	}
	if mix == "hit" {
		for i := 0; i < w.octrees; i++ {
			if _, err := prime.do(w.request("hit", 0, uint64(i))); err != nil {
				fatal(fmt.Errorf("prime octree %d: %w", i, err))
			}
		}
	}
	prime.close()

	ce := &cell{}
	start := time.Now()
	if rate > 0 {
		runOpen(w, mix, rate, duration, mkClient, ce)
	} else {
		runClosed(w, mix, conc, duration, mkClient, ce)
	}
	elapsed := time.Since(start)
	report(mix, conc, rate, ce, elapsed)
}

// runClosed: conc workers, each issuing the next request on completion.
func runClosed(w *workload, mix string, conc int, duration time.Duration, mkClient func() (client, error), ce *cell) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	for wk := 0; wk < conc; wk++ {
		cl, err := mkClient()
		if err != nil {
			fatal(err)
		}
		wg.Add(1)
		go func(wk int, cl client) {
			defer wg.Done()
			defer cl.close()
			for i := uint64(wk); time.Now().Before(deadline); i += uint64(conc) {
				req := w.request(mix, wk, i)
				t0 := time.Now()
				hit, err := cl.do(req)
				ce.record(time.Since(t0), hit, err)
			}
		}(wk, cl)
	}
	wg.Wait()
}

// runOpen: arrivals on a fixed schedule, one goroutine per in-flight
// request, outstanding requests capped so an overloaded service degrades
// into recorded queueing delay rather than unbounded goroutine growth.
func runOpen(w *workload, mix string, rate float64, duration time.Duration, mkClient func() (client, error), ce *cell) {
	const maxOutstanding = 512
	interval := time.Duration(float64(time.Second) / rate)
	var outstanding atomic.Int64
	var dropped atomic.Int64
	var wg sync.WaitGroup

	// Open-loop workers pull from a shared arrival sequence; each owns a
	// connection (wire mode) but fires only when the scheduler hands it an
	// arrival slot.
	clients := make(chan client, maxOutstanding)
	for i := 0; i < cap(clients); i++ {
		cl, err := mkClient()
		if err != nil {
			fatal(err)
		}
		clients <- cl
	}

	deadline := time.Now().Add(duration)
	for i := uint64(0); ; i++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		next := now.Add(interval)
		if outstanding.Load() >= maxOutstanding {
			dropped.Add(1)
		} else {
			cl := <-clients
			outstanding.Add(1)
			wg.Add(1)
			go func(i uint64, issued time.Time, cl client) {
				defer wg.Done()
				req := w.request(mix, int(i), i)
				hit, err := cl.do(req)
				// Latency includes nothing before the scheduled issue:
				// arrivals fire on schedule, so service+queue time is
				// completion minus issue.
				ce.record(time.Since(issued), hit, err)
				outstanding.Add(-1)
				clients <- cl
			}(i, now, cl)
		}
		time.Sleep(time.Until(next))
	}
	wg.Wait()
	for i := 0; i < cap(clients); i++ {
		(<-clients).close()
	}
	if d := dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: open loop dropped %d arrivals (outstanding cap %d)\n", d, maxOutstanding)
	}
}

func report(mix string, conc int, rate float64, ce *cell, elapsed time.Duration) {
	if ce.errs > 0 {
		fatal(fmt.Errorf("mix=%s: %d requests failed", mix, ce.errs))
	}
	n := len(ce.lat)
	if n == 0 {
		fatal(fmt.Errorf("mix=%s: no requests completed in the window", mix))
	}
	slices.Sort(ce.lat)
	var total time.Duration
	for _, d := range ce.lat {
		total += d
	}
	avg := total / time.Duration(n)
	p50 := ce.lat[n/2]
	p99 := ce.lat[min(n-1, n*99/100)]
	rps := float64(n) / elapsed.Seconds()
	hitRate := float64(ce.hits) / float64(n)

	label := fmt.Sprintf("BenchmarkServiceLoad/mix=%s/conc=%d", mix, conc)
	if rate > 0 {
		label = fmt.Sprintf("BenchmarkServiceLoad/mix=%s/open=%g", mix, rate)
	}
	fmt.Printf("%s \t%8d \t%12.0f ns/op \t%10.1f req/s \t%12d p50-ns/op \t%12d p99-ns/op \t%6.3f hit-rate\n",
		label, n, float64(avg.Nanoseconds()), rps, p50.Nanoseconds(), p99.Nanoseconds(), hitRate)
}

// validateFlags range-checks the numeric flags before any workload is
// generated: a negative rate would silently select the closed loop, a
// non-positive duration measures nothing and dies mid-run with "no requests
// completed", and non-positive -octrees or -tenants divide by zero in the
// request builder once workers are already firing.
func validateFlags(rate float64, duration time.Duration, n, octrees, ranks, slots, tenants int) error {
	if rate < 0 {
		return fmt.Errorf("-rate %g: must be >= 0 (0 selects the closed loop)", rate)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration %v: need a positive measurement window", duration)
	}
	if n < 1 {
		return fmt.Errorf("-n %d: need at least one key per request", n)
	}
	if octrees < 1 {
		return fmt.Errorf("-octrees %d: need at least one octree in the pool", octrees)
	}
	if ranks < 1 {
		return fmt.Errorf("-ranks %d: need at least one partition per request", ranks)
	}
	if slots < 1 {
		return fmt.Errorf("-slots %d: need at least one admission slot", slots)
	}
	if tenants < 1 {
		return fmt.Errorf("-tenants %d: need at least one tenant", tenants)
	}
	return nil
}

func parseConcs(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-conc %q: %w", s, err)
		}
		if v == 0 {
			v = runtime.GOMAXPROCS(0)
		}
		if v < 1 {
			return nil, fmt.Errorf("-conc %q: concurrency %d < 1", s, v)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-conc %q: empty list", s)
	}
	return out, nil
}

// parseModel resolves -machine and -mode through their types' one parsers.
func parseModel(machineName, modeName string) (optipart.Machine, optipart.Mode, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return m, 0, err
	}
	pmode, err := partition.ParseMode(modeName)
	return m, pmode, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
