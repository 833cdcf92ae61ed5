package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/service"
	"optipart/internal/sfc"
)

// scratchDir holds the unix sockets of a run. It is relative, so that the
// socket paths stay short wherever the checkout lives.
const scratchDir = ".bench_build"

// serviceLoad is a closed loop of clients against an in-process
// service.Service, in one of two mixes that stress opposite halves of it.
//
// hit: a small pool of already-canonical octrees (what a client holding a
// linear octree sends), primed in set-up and requested round-robin. Every Do
// is a cache read — canonicalize, digest, verify, LRU touch — and the
// partitioner does nothing.
//
// miss: every request is a distinct unsorted octree (a pool octree plus one
// unique level-18 octant), against a cache bound that holds a few hundred of
// them. Every Do is a cache write — admission, the p-goroutine SPMD world of
// service.compute, entry insert, eviction — at a size where world spin-up
// is a visible share.
type serviceLoad struct {
	miss      bool
	pool      int // distinct octrees
	rawKeys   int // raw keys generated per octree
	ranks     int
	cacheKeys int // service.Config.MaxCachedKeys
	clients   int
	rate      float64 // ops per second of closed-loop window on the sizing host

	curve  *sfc.Curve
	m      machine.Machine
	svc    *service.Service
	octs   [][]sfc.Key         // hit: canonical octrees; miss: raw unsorted bases
	primed []*service.Response // hit: the response each pool octree was primed with
	canon  []*octree.Tree      // miss: canonical form of each base
	unique atomic.Uint64       // miss: next unique octant id
}

func (w *serviceLoad) name() string {
	if w.miss {
		return "service-miss"
	}
	return "service-hit"
}

func (w *serviceLoad) opsPerRep(seconds float64, reps int) int {
	return max(w.clients, int(math.Ceil(w.rate*seconds/float64(reps))))
}

func (w *serviceLoad) setup(seed int64) error {
	w.curve = sfc.NewCurve(sfc.Hilbert, 3)
	w.m = machine.Clemson32()
	w.svc = service.New(service.Config{Slots: 2, MaxCachedKeys: w.cacheKeys})
	rng := rand.New(rand.NewSource(seed))
	w.octs = make([][]sfc.Key, w.pool)
	w.primed, w.canon = nil, nil
	for i := range w.octs {
		raw := octree.RandomKeys(rng, w.rawKeys, 3, octree.Normal, 2, 14)
		canon := append([]sfc.Key(nil), raw...)
		psort.TreeSort(w.curve, canon)
		canon = octree.LinearizeSorted(canon)
		if w.miss {
			w.octs[i] = raw
			w.canon = append(w.canon, octree.New(w.curve, canon))
			continue
		}
		w.octs[i] = canon
		resp, hit, err := w.svc.Do(w.request(i, nil))
		if err == nil && hit {
			err = fmt.Errorf("priming request was already cached")
		}
		if err == nil {
			err = checkResponse(resp, len(canon))
		}
		if err != nil {
			return fmt.Errorf("prime octree %d: %w", i, err)
		}
		w.primed = append(w.primed, resp)
	}
	return nil
}

func (w *serviceLoad) close() { w.svc.Close() }

// request renders the i-th request. On the miss mix it appends one unique
// deep octant to the base in buf: level 18 is below the generator's deepest
// level 14, so every canonical form is new.
func (w *serviceLoad) request(i int, buf []sfc.Key) service.Request {
	keys := w.octs[i%w.pool]
	if w.miss {
		id := w.unique.Add(1)
		const unit = 1 << (sfc.MaxLevel - 18)
		keys = append(append(buf[:0], keys...), sfc.Key{
			X:     uint32(id&0x3ffff) * unit,
			Y:     uint32((id>>18)&0x3ffff) * unit,
			Z:     uint32((id>>36)&0x3ffff) * unit,
			Level: 18,
		})
	}
	return service.Request{
		Keys: keys, CurveKind: sfc.Hilbert, Dim: 3,
		Ranks: w.ranks, Mode: partition.ModelDriven, Machine: w.m,
	}
}

// check verifies the response to request i. A hit must be the very response
// the pool octree was primed with; a miss must be computed, and must cover
// the canonical octree: the base's canonical keys plus the unique octant,
// minus the base leaf that contains it, if one does.
func (w *serviceLoad) check(i int, req service.Request, resp *service.Response, hit bool, err error) error {
	if err != nil {
		return err
	}
	if !w.miss {
		if !hit || resp != w.primed[i%w.pool] {
			return fmt.Errorf("request %d: hit=%v, response is not the primed one", i, hit)
		}
		return nil
	}
	if hit {
		return fmt.Errorf("request %d: a distinct octree was served from the cache", i)
	}
	base := w.canon[i%w.pool]
	want := base.Len() + 1
	if base.FindLeaf(req.Keys[len(req.Keys)-1]) >= 0 {
		want--
	}
	return checkResponse(resp, want)
}

func (w *serviceLoad) run(n int, r *result) {
	wall := r.timed(func() {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]sfc.Key, 0, w.rawKeys+1)
				for i := c; i < n; i += w.clients {
					req := w.request(i, buf)
					t0 := time.Now()
					resp, hit, err := w.svc.Do(req)
					d := time.Since(t0)
					err = w.check(i, req, resp, hit, err)
					var tp float64
					if err == nil {
						tp = resp.Predicted
					}
					r.record(d, len(req.Keys), tp, 0, err)
				}
			}()
		}
		wg.Wait()
	})
	r.closedLoop(wall)
}

// trace runs one client, so that the replayed stages of a request follow it
// on the same goroutine: the request through Do, then the layers Do is made
// of, called directly on the same keys.
func (w *serviceLoad) trace(n int, tr *tracer, _ float64) map[string]float64 {
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	arena := new(psort.Arena)
	buf := make([]sfc.Key, 0, w.rawKeys+1)
	work := make([]sfc.Key, 0, w.rawKeys+1)
	before := w.svc.Metrics()

	var wire *wireClient
	if w.miss {
		var err error
		if wire, err = dialService(w.svc); err != nil {
			panic(err)
		}
		defer wire.close()
	}

	for op := 0; op < n; op++ {
		req := w.request(op, buf)
		root := tr.begin(w.name(), op, -1, "bench", "op")

		heap := readCounters().objects
		id := tr.begin(w.name(), op, root, "service", "Service.Do")
		resp, hit, err := w.svc.Do(req)
		do := tr.end(id)
		allocs := float64(readCounters().objects - heap)
		if err := w.check(op, req, resp, hit, err); err != nil {
			panic(err)
		}
		add("service.do_ms", do)

		work = append(work[:0], req.Keys...)
		id = tr.begin(w.name(), op, root, "psort", "TreeSortArena")
		psort.TreeSortArena(w.curve, work, arena)
		sort := tr.end(id)
		id = tr.begin(w.name(), op, root, "octree", "LinearizeSorted")
		canon := octree.LinearizeSorted(work)
		linearize := tr.end(id)

		if !w.miss {
			add("psort.arena_sort_ms", sort)
			add("octree.linearize_ms", linearize)
			add("service.hit_residual_ms", do-sort-linearize)
			add("service.hit_allocs", allocs)
			tr.end(root)
			continue
		}

		id = tr.begin(w.name(), op, root, "partition", "RunChecked+Partition(SkipExchange)")
		_, err = comm.RunChecked(w.ranks, w.m.CostModel(), func(c *comm.Comm) error {
			lo, hi := len(canon)*c.Rank()/w.ranks, len(canon)*(c.Rank()+1)/w.ranks
			partition.Partition(c, canon[lo:hi], partition.Options{
				Curve: w.curve, Mode: partition.ModelDriven, Machine: w.m, SkipExchange: true,
			})
			return nil
		})
		compute := tr.end(id)
		if err != nil {
			panic(err)
		}
		add("service.canon_ms", sort+linearize)
		add("service.compute_equiv_ms", compute)
		add("service.miss_residual_ms", do-sort-linearize-compute)
		add("service.miss_allocs", allocs)

		// Another distinct request, through the gob service wire.
		req = w.request(op, buf)
		id = tr.begin(w.name(), op, root, "service", "ServeConn")
		wr, err := wire.do(req)
		add("service.serveconn_ms", tr.end(id))
		if err != nil || wr.Hit || wr.Quality.N != int64(wr.NumKeys) {
			panic(fmt.Errorf("request over ServeConn: err=%v hit=%v N=%d NumKeys=%d", err, wr.Hit, wr.Quality.N, wr.NumKeys))
		}
		tr.end(root)
	}

	after := w.svc.Metrics()
	out := map[string]float64{}
	for name, vals := range series {
		out[name] = median(vals)
	}
	out["service.do_ms_p99"] = percentile(series["service.do_ms"], 0.99)
	doMs := out["service.do_ms"]
	delete(out, "service.do_ms")
	if !w.miss {
		out["service.hit_ratio"] = float64(after.Hits-before.Hits) / float64(after.Requests-before.Requests)
		out["service.hit_mb_per_s"] = float64(len(w.octs[0])*psort.KeyBytes) / 1e6 / (doMs / 1e3)
		return out
	}
	out["service.wire_overhead_ms"] = out["service.serveconn_ms"] - doMs
	out["service.evictions_per_op"] = float64(after.Evictions-before.Evictions) / float64(after.Requests-before.Requests)
	out["service.cached_keys"] = float64(after.CachedKeys)
	out["comm.world_spawn_us"] = worldSpawnUs(tr, w.name(), w.ranks)
	return out
}

// wireClient speaks the service's gob protocol over one unix-socket
// connection served by service.ServeConn, as `optipartd -serve` does.
type wireClient struct {
	ln     stdnet.Listener
	conn   stdnet.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	served chan error
}

func dialService(svc *service.Service) (*wireClient, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("svc-%d.sock", os.Getpid()))
	os.Remove(path) // a stale socket from a killed run
	ln, err := stdnet.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	c := &wireClient{ln: ln, served: make(chan error, 1)}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			c.served <- err
			return
		}
		defer conn.Close()
		c.served <- service.ServeConn(svc, conn)
	}()
	if c.conn, err = stdnet.Dial("unix", path); err != nil {
		ln.Close()
		<-c.served
		return nil, err
	}
	c.enc, c.dec = gob.NewEncoder(c.conn), gob.NewDecoder(c.conn)
	return c, nil
}

func (c *wireClient) do(req service.Request) (service.WireResponse, error) {
	var resp service.WireResponse
	wr := service.FromRequest(req)
	if err := c.enc.Encode(&wr); err != nil {
		return resp, err
	}
	if err := c.dec.Decode(&resp); err != nil {
		return resp, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("server: %s", resp.Err)
	}
	return resp, nil
}

// close hangs up and waits for the serving goroutine to return.
func (c *wireClient) close() {
	c.conn.Close()
	<-c.served
	c.ln.Close()
}
