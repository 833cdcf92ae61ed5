package service

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// testKeys draws a reproducible key stream.
func testKeys(seed int64, n int) []sfc.Key {
	rng := rand.New(rand.NewSource(seed))
	return octree.RandomKeys(rng, n, 3, octree.Normal, 2, 14)
}

func baseRequest(keys []sfc.Key) Request {
	return Request{
		Keys:      keys,
		CurveKind: sfc.Hilbert,
		Dim:       3,
		Ranks:     4,
		Mode:      partition.EqualWork,
		Machine:   machine.Clemson32(),
	}
}

// canonicalKeys draws n keys of a linear octree in curve order: exactly the
// form the service caches, so a request carrying them can hit as sent.
func canonicalKeys(t testing.TB, seed int64, n int) []sfc.Key {
	t.Helper()
	keys := octree.Linearize(sfc.NewCurve(sfc.Hilbert, 3), testKeys(seed, 2*n))
	if len(keys) < n {
		t.Fatalf("seed %d linearized to %d keys, need %d", seed, len(keys), n)
	}
	// Any prefix of a linear octree is still linear.
	return keys[:n:n]
}

// doProbe runs s.Do(req) on an emptied arena freelist and also reports
// whether the call canonicalized: that path takes an arena and returns it
// to the freelist, the as-sent fast path never touches one.
func doProbe(s *Service, req Request) (resp *Response, hit, canonicalized bool, err error) {
	s.mu.Lock()
	s.arenas = s.arenas[:0]
	s.mu.Unlock()
	resp, hit, err = s.Do(req)
	s.mu.Lock()
	canonicalized = len(s.arenas) > 0
	s.mu.Unlock()
	return resp, hit, canonicalized, err
}

func TestServiceBasic(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := baseRequest(testKeys(1, 5000))

	r1, hit, err := s.Do(req)
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	if r1.Splitters.P() != req.Ranks {
		t.Fatalf("splitters P = %d, want %d", r1.Splitters.P(), req.Ranks)
	}
	sum := 0
	for _, c := range r1.Counts {
		sum += c
	}
	if sum != r1.NumKeys || r1.NumKeys == 0 || r1.NumKeys > len(req.Keys) {
		t.Fatalf("counts sum %d vs NumKeys %d (input %d)", sum, r1.NumKeys, len(req.Keys))
	}
	// EqualWork on a linear octree: every rank gets within one refinement
	// bucket of the ideal grain; at minimum no rank is empty here.
	for r, c := range r1.Counts {
		if c == 0 {
			t.Fatalf("rank %d assigned 0 of %d keys", r, r1.NumKeys)
		}
	}

	r2, hit, err := s.Do(req)
	if err != nil || !hit {
		t.Fatalf("second Do: hit=%v err=%v", hit, err)
	}
	if r2 != r1 {
		t.Fatal("cache hit returned a different Response pointer")
	}
	m := s.Metrics()
	if m.Misses != 1 || m.Hits != 1 || m.CachedEntries != 1 || m.CachedKeys != r1.NumKeys {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestServiceValidation: a malformed request is an error naming the field
// at fault. Before validate checked the model inputs, a NaN Alpha walked
// ModelDriven's whole ladder to a NaN Predicted and a negative payload
// rewarded boundary surface.
func TestServiceValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	keys := testKeys(2, 10)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		edit func(*Request)
		want string
	}{
		{func(r *Request) { r.Keys = nil }, "empty key set"},
		{func(r *Request) { r.Dim = 4 }, "dim 4"},
		{func(r *Request) { r.Ranks = 0 }, "ranks 0"},
		{func(r *Request) { r.Ranks = maxRanks + 1 }, "ranks 1025"},
		{func(r *Request) { r.Tol = -0.1 }, "tol -0.1"},
		{func(r *Request) { r.Tol = nan }, "tol NaN"},
		{func(r *Request) { r.Tol = inf }, "tol +Inf"},
		{func(r *Request) { r.Alpha = -1 }, "alpha -1"},
		{func(r *Request) { r.Alpha = nan }, "alpha NaN"},
		{func(r *Request) { r.Alpha = -inf }, "alpha -Inf"},
		{func(r *Request) { r.PayloadBytes = -8 }, "payload bytes -8"},
	} {
		req := Request{Keys: keys, Dim: 3, Ranks: 2, CurveKind: sfc.Morton, Mode: partition.ModelDriven}
		tc.edit(&req)
		if _, _, err := s.Do(req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Do error = %v, want it to name %q", err, tc.want)
		}
	}
	if m := s.Metrics(); m.Requests != 0 {
		t.Fatalf("rejected requests moved the counters: %+v", m)
	}
}

// TestServiceTolSharesModelDrivenEntry: Partition reads Tol only under
// FlexibleTolerance, so a ModelDriven request with Tol 0.3 is the question
// one with Tol 0 asked, and hits its entry.
func TestServiceTolSharesModelDrivenEntry(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := baseRequest(testKeys(7, 2000))
	req.Mode = partition.ModelDriven
	r0, hit, err := s.Do(req)
	if err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}
	req.Tol = 0.3
	r, hit, err := s.Do(req)
	if err != nil || !hit || r != r0 {
		t.Fatalf("Tol 0.3: hit=%v err=%v shared=%v, want the Tol 0 entry", hit, err, r == r0)
	}
	if m := s.Metrics(); m.Misses != 1 || m.CachedEntries != 1 {
		t.Fatalf("metrics = %+v, want one miss and one entry", m)
	}
}

// TestServiceCanonicalization: the same octree presented shuffled, with
// duplicates, and with redundant ancestors is the same request — a cache
// hit, not a second computation.
func TestServiceCanonicalization(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	keys := testKeys(3, 3000)
	req := baseRequest(keys)
	if _, hit, err := s.Do(req); err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}

	rng := rand.New(rand.NewSource(33))
	variant := append([]sfc.Key(nil), keys...)
	rng.Shuffle(len(variant), func(i, j int) { variant[i], variant[j] = variant[j], variant[i] })
	for i := 0; i < 300; i++ {
		k := keys[rng.Intn(len(keys))]
		variant = append(variant, k) // duplicate
		if k.Level > 1 {
			variant = append(variant, k.Ancestor(k.Level-1)) // redundant ancestor
		}
	}
	vreq := req
	vreq.Keys = variant
	if _, hit, err := s.Do(vreq); err != nil || !hit {
		t.Fatalf("canonical variant: hit=%v err=%v (want hit)", hit, err)
	}
	if m := s.Metrics(); m.Misses != 1 {
		t.Fatalf("variant recomputed: %+v", m)
	}
}

// TestDigestFieldSensitivity: changing any parameter that affects the
// result changes the digest.
func TestDigestFieldSensitivity(t *testing.T) {
	keys := testKeys(4, 500)
	canon := octree.Linearize(sfc.NewCurve(sfc.Hilbert, 3), append([]sfc.Key(nil), keys...))
	base := baseRequest(canon)
	d0 := digestRequest(&base, canon)

	mutations := map[string]func(*Request){
		"curve":   func(r *Request) { r.CurveKind = sfc.Morton },
		"dim":     func(r *Request) { r.Dim = 2 },
		"ranks":   func(r *Request) { r.Ranks = 5 },
		"mode":    func(r *Request) { r.Mode = partition.ModelDriven },
		"alpha":   func(r *Request) { r.Alpha = 16 },
		"payload": func(r *Request) { r.PayloadBytes = 512 },
		"machine": func(r *Request) { r.Machine = machine.Titan() },
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		if digestRequest(&r, canon) == d0 {
			t.Fatalf("mutating %s did not change the digest", name)
		}
	}
	// Tol is part of the question under FlexibleTolerance, the one mode
	// that reads it ...
	flex := base
	flex.Mode = partition.FlexibleTolerance
	flexTol := flex
	flexTol.Tol = 0.25
	if digestRequest(&flex, canon) == digestRequest(&flexTol, canon) {
		t.Fatal("mutating tol under FlexibleTolerance did not change the digest")
	}
	// ... and Do zeroes it in the others, so there it does not split the
	// cache.
	s := New(Config{})
	defer s.Close()
	for _, mode := range []partition.Mode{partition.EqualWork, partition.ModelDriven} {
		r := base
		r.Mode = mode
		if _, _, err := s.Do(r); err != nil {
			t.Fatal(err)
		}
		r.Tol = 0.25
		if _, hit, err := s.Do(r); err != nil || !hit {
			t.Fatalf("%v: Tol 0.25 after Tol 0: hit=%v err=%v, want a hit", mode, hit, err)
		}
	}

	// Any single key field flips it too, wherever the key sits among the
	// digest's lanes: at an even index, at an odd one, and as the tail key
	// of an odd-length octree, which the even lanes take alone.
	odd := canon[:(len(canon)-1)|1]
	dOdd := digestRequest(&base, odd)
	for _, i := range []int{len(odd) / 2 &^ 1, len(odd)/2 | 1, len(odd) - 1} {
		for field, mutate := range map[string]func(*sfc.Key){
			"X":     func(k *sfc.Key) { k.X ^= 1 << 10 },
			"Y":     func(k *sfc.Key) { k.Y ^= 1 << 10 },
			"Z":     func(k *sfc.Key) { k.Z ^= 1 << 10 },
			"Level": func(k *sfc.Key) { k.Level ^= 1 },
		} {
			mut := slices.Clone(odd)
			mutate(&mut[i])
			if digestRequest(&base, mut) == dOdd {
				t.Fatalf("mutating key %d of %d's %s did not change the digest", i, len(odd), field)
			}
		}
	}
	// So does swapping two adjacent keys, whether the pair shares a lane
	// step (even, odd) or straddles two (odd, even).
	for _, i := range []int{len(odd) / 2 &^ 1, len(odd)/2 | 1} {
		mut := slices.Clone(odd)
		mut[i], mut[i+1] = mut[i+1], mut[i]
		if digestRequest(&base, mut) == dOdd {
			t.Fatalf("swapping keys %d and %d did not change the digest", i, i+1)
		}
	}
}

// FuzzDigestCanonicalization: for random key streams, any permutation with
// random duplication digests identically after canonicalization, and
// flipping one key bit digests differently.
func FuzzDigestCanonicalization(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0))
	f.Add(int64(99), uint16(2000), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flip uint8) {
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		keys := octree.RandomKeys(rng, int(n), 3, octree.Uniform, 1, 12)
		req := baseRequest(keys)

		var a psort.Arena
		canonicalDigest := func(ks []sfc.Key) digest128 {
			r := req
			r.Keys = ks
			canon, _, _ := canonicalize(&r, &a)
			d := digestRequest(&r, canon)
			// canon aliases the arena; consume the digest before reuse.
			return d
		}
		d0 := canonicalDigest(keys)

		perm := append([]sfc.Key(nil), keys...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < int(n)/4+1; i++ {
			perm = append(perm, keys[rng.Intn(len(keys))])
		}
		if canonicalDigest(perm) != d0 {
			t.Fatal("permuted+duplicated stream digests differently")
		}

		mut := append([]sfc.Key(nil), keys...)
		i := rng.Intn(len(mut))
		mut[i].X ^= 1 << (flip % 30)
		mut[i].X &= (1 << 30) - 1
		mutD := canonicalDigest(mut)
		// The flipped key can coincide with (or become an ancestor state
		// of) the original canonical set; only assert difference when the
		// canonical forms actually differ.
		c1 := octree.Linearize(sfc.NewCurve(req.CurveKind, req.Dim), append([]sfc.Key(nil), keys...))
		c2 := octree.Linearize(sfc.NewCurve(req.CurveKind, req.Dim), append([]sfc.Key(nil), mut...))
		equal := len(c1) == len(c2)
		if equal {
			for j := range c1 {
				if c1[j] != c2[j] {
					equal = false
					break
				}
			}
		}
		if equal != (mutD == d0) {
			t.Fatalf("digest equality %v but canonical equality %v", mutD == d0, equal)
		}
	})
}

// FuzzServiceCanonicalHit: after a random stream primes the cache, its
// canonical form hits through the as-sent fast path and a shuffled,
// duplicated copy hits through the canonicalizing path, both returning the
// primed response; the canonical form asking for one more rank misses.
func FuzzServiceCanonicalHit(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(99), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		keys := octree.RandomKeys(rng, int(n%4096)+1, 3, octree.Uniform, 1, 12)
		s := New(Config{})
		defer s.Close()
		req := baseRequest(keys)
		r0, _, err := s.Do(req)
		if err != nil {
			t.Fatal(err)
		}

		canon := octree.Linearize(sfc.NewCurve(req.CurveKind, req.Dim), append([]sfc.Key(nil), keys...))
		padded := append([]sfc.Key(nil), canon...)
		rng.Shuffle(len(padded), func(i, j int) { padded[i], padded[j] = padded[j], padded[i] })
		for i := 0; i < len(canon)/4+1; i++ {
			padded = append(padded, canon[rng.Intn(len(canon))])
		}
		creq, preq := req, req
		creq.Keys, preq.Keys = canon, padded
		for _, tc := range []struct {
			name          string
			req           Request
			canonicalized bool
		}{
			{"canonical", creq, false},
			{"shuffled and duplicated", preq, true},
		} {
			r, hit, canonicalized, err := doProbe(s, tc.req)
			if err != nil || !hit || r != r0 {
				t.Fatalf("%s: hit=%v err=%v shared=%v", tc.name, hit, err, r == r0)
			}
			if canonicalized != tc.canonicalized {
				t.Fatalf("%s: canonicalized=%v, want %v", tc.name, canonicalized, tc.canonicalized)
			}
		}

		more := creq
		more.Ranks++
		if _, hit, err := s.Do(more); err != nil || hit {
			t.Fatalf("Ranks+1: hit=%v err=%v, want a miss", hit, err)
		}
	})
}

// TestSingleflight: N concurrent identical requests compute exactly once.
func TestSingleflight(t *testing.T) {
	s := New(Config{Slots: 4})
	defer s.Close()
	req := baseRequest(testKeys(5, 20000))
	const n = 16
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := s.Do(req)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()
	m := s.Metrics()
	if m.Misses != 1 {
		t.Fatalf("partitioner ran %d times for %d identical requests", m.Misses, n)
	}
	if m.Hits+m.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", m.Hits, m.Coalesced, n-1)
	}
	for i := 1; i < n; i++ {
		if resps[i] != resps[0] {
			t.Fatal("singleflight returned distinct responses")
		}
	}

	// Canonical keys while the leader is still computing: the as-sent
	// digest finds a pending entry, so each follower falls through and
	// waits on it. Holding the only slot keeps the leader in admission
	// until every request is parked.
	cs := New(Config{Slots: 1})
	defer cs.Close()
	if err := cs.admit(); err != nil {
		t.Fatalf("admit on a fresh service: %v", err)
	}
	creq := baseRequest(canonicalKeys(t, 5, 8000))
	cresps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := cs.Do(creq)
			if err != nil {
				t.Errorf("canonical Do: %v", err)
				return
			}
			cresps[i] = r
		}(i)
	}
	for cs.Metrics().Requests < n {
		runtime.Gosched()
	}
	cs.release()
	wg.Wait()
	if m := cs.Metrics(); m.Misses != 1 || m.Coalesced != n-1 || m.Hits != 0 {
		t.Fatalf("canonical followers of a pending leader: %+v, want 1 miss and %d coalesced", m, n-1)
	}
	for i := 1; i < n; i++ {
		if cresps[i] != cresps[0] {
			t.Fatal("canonical singleflight returned distinct responses")
		}
	}
}

// TestZeroAllocCacheHit: the steady-state hit path allocates nothing —
// arena copy-in, sort, linearize, digest, lookup, verify, LRU touch,
// return.
func TestZeroAllocCacheHit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := baseRequest(testKeys(6, 2000))
	if _, _, err := s.Do(req); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := s.Do(req); !hit {
		t.Fatal("warmup not a hit")
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, hit, err := s.Do(req)
		if !hit || err != nil {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocates %.1f objects per request, want 0", allocs)
	}
}

// TestZeroAllocCanonicalHit: a hit on canonical input is served from its
// as-sent digest and allocates nothing at any size. Above psort's parallel
// cutoff (1<<14 keys) the canonicalizing hit allocates on a multi-core host,
// so the large case also fails if the fast path stops firing.
func TestZeroAllocCanonicalHit(t *testing.T) {
	for _, n := range []int{2000, 40000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := New(Config{})
			defer s.Close()
			req := baseRequest(canonicalKeys(t, 6, n))
			if _, _, err := s.Do(req); err != nil {
				t.Fatal(err)
			}
			if _, hit, canonicalized, err := doProbe(s, req); !hit || canonicalized || err != nil {
				t.Fatalf("hit=%v canonicalized=%v err=%v, want a fast hit", hit, canonicalized, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				_, hit, err := s.Do(req)
				if !hit || err != nil {
					t.Fatalf("hit=%v err=%v", hit, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("canonical cache hit allocates %.1f objects per request, want 0", allocs)
			}
		})
	}
}

// TestEviction: the cache holds at most MaxCachedKeys canonical keys,
// evicting least-recently-used entries.
func TestEviction(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	const na = 1000
	mk := func(seed int64) Request {
		keys := octree.Linearize(curve, testKeys(seed, 1600))
		if len(keys) < na {
			t.Fatalf("seed %d linearized to %d keys, need %d", seed, len(keys), na)
		}
		// Equal canonical sizes make the eviction arithmetic exact: any
		// prefix of a linear octree is still linear.
		return baseRequest(keys[:na])
	}
	a, b, c := mk(10), mk(11), mk(12)
	s := New(Config{MaxCachedKeys: 2 * na})
	defer s.Close()

	for _, r := range []Request{a, b} {
		if _, _, err := s.Do(r); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.CachedEntries != 2 || m.Evictions != 0 {
		t.Fatalf("after a,b: %+v", m)
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, hit, _ := s.Do(a); !hit {
		t.Fatal("a not cached")
	}
	if _, _, err := s.Do(c); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Evictions == 0 || m.CachedKeys > 2*na {
		t.Fatalf("after c: %+v", m)
	}
	if _, hit, _ := s.Do(a); !hit {
		t.Fatal("a was evicted instead of b")
	}
	if _, hit, _ := s.Do(b); hit {
		t.Fatal("b still cached after eviction")
	}
}

// TestHitDuringEviction: canonical hits verify a cached octree outside the
// service mutex while misses on other goroutines evict it. Several
// goroutines request primed octrees, half as sent (the canonical fast path)
// and half shuffled (the canonicalizing path), while another streams
// distinct octrees through a cache that holds about two of them. Whatever
// entry a request finds, or recomputes after an eviction, its response is
// that octree's primed answer, and every counted request is counted once.
// The unlocked verify is sound only because eviction never rewrites an
// entry's keys, so the primed entries, evicted or not, must still hold
// their octrees' keys at the end. Under -race, an eviction that rewrote
// them would also race with a verify in flight.
func TestHitDuringEviction(t *testing.T) {
	const na = 600
	s := New(Config{Slots: 2, MaxCachedKeys: 3*na + 100})
	defer s.Close()
	// Distinct sizes make each octree's response its own: NumKeys tells
	// any two apart.
	hot := make([]Request, 3)
	primed := make([]*Response, len(hot))
	for i := range hot {
		hot[i] = baseRequest(canonicalKeys(t, int64(30+i), na+10*i))
		r, _, err := s.Do(hot[i])
		if err != nil {
			t.Fatal(err)
		}
		primed[i] = r
	}
	// Distinct sizes also name each primed entry.
	held := make(map[int]*entry, len(hot))
	s.mu.Lock()
	for _, e := range s.entries {
		held[e.nkeys] = e
	}
	s.mu.Unlock()
	same := func(a, b *Response) bool {
		return a.NumKeys == b.NumKeys && slices.Equal(a.Counts, b.Counts) &&
			slices.Equal(a.Splitters.Seps, b.Splitters.Seps)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 20 || !stop.Load(); it++ {
				i := (g + it) % len(hot)
				req := hot[i]
				if g%2 == 1 {
					req.Keys = slices.Clone(req.Keys)
					rng.Shuffle(len(req.Keys), func(a, b int) { req.Keys[a], req.Keys[b] = req.Keys[b], req.Keys[a] })
				}
				r, hit, err := s.Do(req)
				if err != nil {
					t.Errorf("octree %d: %v", i, err)
					return
				}
				if !same(r, primed[i]) {
					t.Errorf("octree %d: hit=%v returned another octree's response (%d keys, want %d)", i, hit, r.NumKeys, primed[i].NumKeys)
					return
				}
			}
		}(g)
	}
	for j := 0; j < 12; j++ {
		if _, hit, err := s.Do(baseRequest(canonicalKeys(t, int64(100+j), na))); err != nil || hit {
			t.Errorf("evicting octree %d: hit=%v err=%v, want a miss", j, hit, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	m := s.Metrics()
	if m.Evictions == 0 {
		t.Fatalf("metrics = %+v: nothing was evicted", m)
	}
	if m.Requests != m.Hits+m.Misses+m.Coalesced+m.Collisions {
		t.Fatalf("metrics = %+v: requests != hits + misses + coalesced + collisions", m)
	}
	evicted := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range hot {
		e := held[len(hot[i].Keys)]
		if e == nil {
			t.Fatalf("octree %d: no primed entry", i)
		}
		if s.entries[e.digest] != e {
			evicted++
		}
		if !e.keys.EqualKeys(hot[i].Keys) {
			t.Errorf("octree %d: its entry's keys were rewritten (evicted: %v)", i, s.entries[e.digest] != e)
		}
	}
	if evicted == 0 {
		t.Fatal("no primed entry was evicted")
	}
}

// TestOversizedNotCached: an octree larger than the whole bound is served
// but not retained.
func TestOversizedNotCached(t *testing.T) {
	s := New(Config{MaxCachedKeys: 100})
	defer s.Close()
	req := baseRequest(testKeys(13, 2000))
	if _, _, err := s.Do(req); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CachedEntries != 0 || m.CachedKeys != 0 {
		t.Fatalf("oversized octree was cached: %+v", m)
	}
	if _, hit, _ := s.Do(req); hit {
		t.Fatal("oversized octree reported a hit")
	}
}

// TestCollisionVerification: a digest match with a different octree (here
// forced by tampering with the cached copy) must not return the cached
// response — the element-wise verify catches it and the request is
// recomputed.
func TestCollisionVerification(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := baseRequest(testKeys(14, 1500))
	r1, _, err := s.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for _, e := range s.entries {
		e.keys.X[0] ^= 1 // simulate another octree behind the same digest
	}
	s.mu.Unlock()

	r2, hit, err := s.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("verification failure still reported a hit")
	}
	if m := s.Metrics(); m.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", m.Collisions)
	}
	// The recomputed answer matches the original computation.
	if r2.NumKeys != r1.NumKeys || len(r2.Counts) != len(r1.Counts) {
		t.Fatal("collision recompute diverged")
	}
	for i := range r1.Counts {
		if r1.Counts[i] != r2.Counts[i] {
			t.Fatal("collision recompute placement diverged")
		}
	}
}

// TestCollisionVerificationCanonical: the same tampering behind a canonical
// request, whose as-sent digest finds the entry directly. The fast path must
// verify the keys too, and fall through to the collision handling.
func TestCollisionVerificationCanonical(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := baseRequest(canonicalKeys(t, 14, 1500))
	r1, _, err := s.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for _, e := range s.entries {
		e.keys.X[0] ^= 1
	}
	s.mu.Unlock()

	r2, hit, err := s.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("verification failure still reported a hit")
	}
	if m := s.Metrics(); m.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", m.Collisions)
	}
	if r2 == r1 || r2.NumKeys != r1.NumKeys || len(r2.Counts) != len(r1.Counts) {
		t.Fatal("collision recompute diverged")
	}
	for i := range r1.Counts {
		if r1.Counts[i] != r2.Counts[i] {
			t.Fatal("collision recompute placement diverged")
		}
	}
}

// TestCanonicalHitPaths: a canonical request hits through the fast path,
// a permuted and duplicated copy of it through the canonicalizing path, and
// both return the one cached response.
func TestCanonicalHitPaths(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	canon := canonicalKeys(t, 16, 3000)
	req := baseRequest(canon)
	r1, hit, err := s.Do(req)
	if err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}

	rng := rand.New(rand.NewSource(16))
	padded := append([]sfc.Key(nil), canon...)
	rng.Shuffle(len(padded), func(i, j int) { padded[i], padded[j] = padded[j], padded[i] })
	padded = append(padded, canon[:100]...)
	preq := req
	preq.Keys = padded

	for _, tc := range []struct {
		name          string
		req           Request
		canonicalized bool
	}{
		{"canonical", req, false},
		{"permuted and duplicated", preq, true},
	} {
		r, hit, canonicalized, err := doProbe(s, tc.req)
		if err != nil || !hit || r != r1 {
			t.Fatalf("%s: hit=%v err=%v shared=%v", tc.name, hit, err, r == r1)
		}
		if canonicalized != tc.canonicalized {
			t.Fatalf("%s: canonicalized=%v, want %v", tc.name, canonicalized, tc.canonicalized)
		}
	}
	if m := s.Metrics(); m.Misses != 1 || m.Hits != 2 || m.Requests != 3 {
		t.Fatalf("metrics = %+v, want 1 miss and 2 hits of 3 requests", m)
	}
}

// TestCanonicalHitAfterClose: a cached canonical request after Close is
// ErrClosed, not a hit.
func TestCanonicalHitAfterClose(t *testing.T) {
	s := New(Config{})
	req := baseRequest(canonicalKeys(t, 17, 500))
	if _, _, err := s.Do(req); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if r, hit, err := s.Do(req); err != ErrClosed || hit || r != nil {
		t.Fatalf("Do after Close: hit=%v err=%v, want ErrClosed", hit, err)
	}
}

func TestServiceClosed(t *testing.T) {
	s := New(Config{})
	req := baseRequest(testKeys(15, 100))
	s.Close()
	if _, _, err := s.Do(req); err != ErrClosed {
		t.Fatalf("Do after Close: %v", err)
	}
}

// TestServiceConcurrentMixed drives distinct octrees concurrently; every response must be internally consistent and every
// repeat identical. Run under -race in CI.
func TestServiceConcurrentMixed(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = baseRequest(testKeys(int64(20+i), 4000+500*i))
	}
	want := make([]*Response, len(reqs))
	for i, r := range reqs {
		resp, _, err := s.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				i := (g + it) % len(reqs)
				resp, _, err := s.Do(reqs[i])
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if resp.NumKeys != want[i].NumKeys {
					t.Errorf("request %d: NumKeys %d, want %d", i, resp.NumKeys, want[i].NumKeys)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServiceRejectsInvalidKeys: a key a client can put on the wire that is
// not an octant of the 30-level grid is an error naming its index, never a
// panic, and the request leaves no trace in the counters or the cache.
// Before validate checked keys, a level past MaxLevel (255 is
// partition.InfKey's) panicked canonicalize with a negative shift and the
// other cases were partitioned silently.
func TestServiceRejectsInvalidKeys(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, tc := range []struct {
		name string
		dim  int
		key  sfc.Key
	}{
		{"level 31", 3, sfc.Key{Level: 31}},
		{"level 255", 3, sfc.Key{Level: 255}},
		{"InfKey", 3, partition.InfKey},
		{"unaligned anchor", 3, sfc.Key{X: 1, Level: 4}},
		{"coordinate past the grid", 3, sfc.Key{Y: 1 << sfc.MaxLevel, Level: 0}},
		{"Z set at dim 2", 2, sfc.Key{Z: 1 << 29, Level: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := octree.RandomKeys(rand.New(rand.NewSource(3)), 20, tc.dim, octree.Normal, 2, 10)
			const bad = 7
			keys[bad] = tc.key
			req := baseRequest(keys)
			req.Dim = tc.dim
			before := s.Metrics()
			_, _, err := s.Do(req)
			if err == nil {
				t.Fatalf("Do accepted key %v at dim %d", tc.key, tc.dim)
			}
			if want := fmt.Sprintf("key %d ", bad); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the bad index (%q)", err, want)
			}
			if after := s.Metrics(); after != before {
				t.Errorf("rejected request moved the metrics: %+v -> %+v", before, after)
			}
		})
	}
}

// TestServiceRejectsUnknownEnums: CurveKind and Mode travel the wire as
// ints, so a client can name a curve or a mode that does not exist. Both are
// errors that leave no trace in the counters. Before validate checked them,
// an unknown kind panicked the Rank hot loop on a curve built without state
// tables, and an unknown mode was partitioned silently.
func TestServiceRejectsUnknownEnums(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, tc := range []struct {
		name string
		edit func(*Request)
		want string
	}{
		{"curve kind 7", func(r *Request) { r.CurveKind = 7 }, "unknown curve kind"},
		{"curve kind -1", func(r *Request) { r.CurveKind = -1 }, "unknown curve kind"},
		{"mode 7", func(r *Request) { r.Mode = 7 }, "unknown mode"},
		{"mode -1", func(r *Request) { r.Mode = -1 }, "unknown mode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := baseRequest(testKeys(5, 200))
			tc.edit(&req)
			before := s.Metrics()
			_, _, err := s.Do(req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Do error = %v, want %q", err, tc.want)
			}
			if after := s.Metrics(); after != before {
				t.Errorf("rejected request moved the metrics: %+v -> %+v", before, after)
			}
		})
	}
}

// TestServeConnSurvivesInvalidKey: over the wire the same request, and one
// naming an unknown curve kind, come back as WireResponse.Err and the
// connection (and with it the daemon's
// per-connection goroutine) keeps serving.
func TestServeConnSurvivesInvalidKey(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConn(s, server) }()
	enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)

	roundTrip := func(req Request) WireResponse {
		t.Helper()
		wr := FromRequest(req)
		if err := enc.Encode(&wr); err != nil {
			t.Fatal(err)
		}
		var resp WireResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	good := testKeys(71, 200)
	bad := append([]sfc.Key{partition.InfKey}, good...)
	if resp := roundTrip(baseRequest(bad)); !strings.Contains(resp.Err, "key 0 ") {
		t.Fatalf("invalid key over the wire: Err = %q, want it to name key 0", resp.Err)
	}
	unknownKind := baseRequest(good)
	unknownKind.CurveKind = 7
	if resp := roundTrip(unknownKind); !strings.Contains(resp.Err, "unknown curve kind") {
		t.Fatalf("unknown curve kind over the wire: Err = %q", resp.Err)
	}
	// A request for a million partitions must be refused by name before
	// any selection runs.
	huge := baseRequest(good)
	huge.Ranks = 1 << 20
	if resp := roundTrip(huge); !strings.Contains(resp.Err, fmt.Sprintf("ranks %d not in [1, %d]", huge.Ranks, maxRanks)) {
		t.Fatalf("ranks 1<<20 over the wire: Err = %q", resp.Err)
	}
	if resp := roundTrip(baseRequest(good)); resp.Err != "" || len(resp.Seps) != 3 {
		t.Fatalf("valid request after a rejected one: %+v", resp)
	}
	client.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
}

// TestServeConnIgnoresRetiredFields: a client built for the protocol that
// carried a tenant name and a prior placement still sends Tenant, PriorHi,
// PriorLo and Horizon. gob skips the fields WireRequest lacks, so it is
// served the cold answer of a direct Do, which is what it got when its
// prior had been evicted, and its repeat hits.
func TestServeConnIgnoresRetiredFields(t *testing.T) {
	type oldWireRequest struct {
		Tenant       string
		Keys         []sfc.Key
		CurveKind    int
		Dim          int
		Ranks        int
		Mode         int
		Tol          float64
		Alpha        float64
		PayloadBytes int
		MachineName  string

		PriorHi, PriorLo uint64
		Horizon          float64
	}
	req := baseRequest(testKeys(72, 2000))
	req.Mode = partition.ModelDriven
	old := oldWireRequest{
		Tenant: "campaign-7", Keys: req.Keys, CurveKind: int(req.CurveKind), Dim: req.Dim,
		Ranks: req.Ranks, Mode: int(req.Mode), MachineName: req.Machine.Name,
		PriorHi: 0xdeadbeef, PriorLo: 0xfeedface, Horizon: 50,
	}
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for i := 0; i < 2; i++ {
		if err := enc.Encode(&old); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{})
	defer s.Close()
	var out bytes.Buffer
	if err := ServeConn(s, readWriter{&stream, &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	direct := New(Config{})
	defer direct.Close()
	want, _, err := direct.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(&out)
	for i, wantHit := range []bool{false, true} {
		var resp WireResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Err != "" || resp.Hit != wantHit {
			t.Fatalf("response %d: Err = %q, hit = %v, want no error and hit = %v", i, resp.Err, resp.Hit, wantHit)
		}
		if !slices.Equal(resp.Seps, want.Splitters.Seps) {
			t.Fatalf("response %d: separators differ from a direct Do of the same keys", i)
		}
	}
}

// gobRequest is the gob stream a client writes for one request: the type
// descriptor, then the value.
func gobRequest(tb testing.TB, req Request) []byte {
	tb.Helper()
	var buf bytes.Buffer
	wr := FromRequest(req)
	if err := gob.NewEncoder(&buf).Encode(&wr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServeConn: whatever bytes a client sends, ServeConn returns without
// panicking, and the Service it served still answers a valid request on a
// fresh stream.
func FuzzServeConn(f *testing.F) {
	keys := testKeys(80, 64)
	valid := gobRequest(f, baseRequest(keys))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// The level-255 key that panicked canonicalize with a negative shift
	// before validateKeys existed.
	f.Add(gobRequest(f, baseRequest(append([]sfc.Key{{Level: 255}}, keys...))))
	// The curve kind that panicked the Rank hot loop before validate
	// checked it.
	kind := baseRequest(keys)
	kind.CurveKind = 7
	f.Add(gobRequest(f, kind))
	ranks := baseRequest(keys)
	ranks.Ranks = maxRanks + 1
	f.Add(gobRequest(f, ranks))

	s := New(Config{Slots: 1})
	f.Cleanup(s.Close)
	probe := gobRequest(f, baseRequest(testKeys(81, 64)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		_ = ServeConn(s, readWriter{bytes.NewReader(stream), io.Discard})

		var out bytes.Buffer
		if err := ServeConn(s, readWriter{bytes.NewReader(probe), &out}); err != nil {
			t.Fatalf("ServeConn on a valid request: %v", err)
		}
		var resp WireResponse
		if err := gob.NewDecoder(&out).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("valid request after fuzzed stream %x: Err = %q", stream, resp.Err)
		}
	})
}

// fuzzRanks maps a fuzzed byte to a rank count: 1-8, or one of the values
// validate must refuse. A large in-range count is never drawn, since
// directPartition's oracle at 1024 ranks sizes a world near 0.8 GB.
func fuzzRanks(b uint8) int {
	n := int(b) % 12
	if n < 8 {
		return n + 1
	}
	return [...]int{0, -1, maxRanks + 1, 1 << 20}[n-8]
}

// fuzzKeys decodes raw as keys in their 13-byte wire form (sfc.Key's
// ReadElem), at most 512 of them.
func fuzzKeys(raw []byte) []sfc.Key {
	const kb = 13
	keys := make([]sfc.Key, min(len(raw)/kb, 512))
	for i := range keys {
		raw = keys[i].ReadElem(raw)
	}
	return keys
}

// directPartition is the oracle of a computed response: a world of
// partition.Partition, which sorts and ranks its blocks itself, over the
// octree.Linearize of a copy of the request keys, and the counts its
// splitters induce there.
func directPartition(req Request) (res *partition.Result, counts []int) {
	curve := sfc.NewCurve(req.CurveKind, req.Dim)
	canon := octree.Linearize(curve, append([]sfc.Key(nil), req.Keys...))
	p := req.Ranks
	opts := partition.Options{Curve: curve, Mode: req.Mode, Tol: req.Tol, Machine: req.Machine,
		Alpha: req.Alpha, PayloadBytes: req.PayloadBytes, SkipExchange: true}
	comm.Run(p, req.Machine.CostModel(), func(c *comm.Comm) {
		r := partition.Partition(c, canon[len(canon)*c.Rank()/p:len(canon)*(c.Rank()+1)/p], opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	ranges := res.Splitters.Ranges(canon)
	for r := 0; r < p; r++ {
		counts = append(counts, ranges[r+1]-ranges[r])
	}
	return res, counts
}

// FuzzServiceDo: whatever request a client builds — keys, curve kind, dim,
// mode, Tol, Alpha, payload and ranks — Service.Do returns a response or an
// error and never panics, and a response is a placement of the canonical
// octree over the requested ranks. A computed response (a miss) equals
// directPartition's p-rank world bit for bit, so the service's one-rank
// selection is the world's, and the rank column it carries from
// canonicalization is the one a fresh sort would produce.
// The seeds send the keys of a cached octree with different scalar fields,
// so they reach the canonical fast path as well as validation and the
// compute path, and the same keys permuted, with duplicates and with
// ancestors, so canonicalization compacts the rank column.
func FuzzServiceDo(f *testing.F) {
	s := New(Config{Slots: 1, MaxCachedKeys: 1 << 14})
	f.Cleanup(s.Close)
	cached := canonicalKeys(f, 90, 256)
	if _, _, err := s.Do(baseRequest(cached)); err != nil {
		f.Fatal(err)
	}
	var raw []byte
	for _, k := range cached {
		raw = k.AppendElem(raw)
	}
	h, eq, md, ft := uint8(sfc.Hilbert), uint8(partition.EqualWork), uint8(partition.ModelDriven), uint8(partition.FlexibleTolerance)
	f.Add(raw, h, uint8(3), eq, 0.0, 0.0, int32(0), uint8(3))    // the cached request: a fast hit
	f.Add(raw, h, uint8(3), eq, 0.3, 0.0, int32(0), uint8(3))    // an unread Tol: still a fast hit
	f.Add(raw, h, uint8(3), md, 0.0, 16.0, int32(512), uint8(7)) // a ModelDriven miss
	f.Add(raw, h, uint8(3), ft, 0.25, 0.0, int32(0), uint8(0))   // a FlexibleTolerance miss
	f.Add(raw, h, uint8(3), md, 0.0, math.NaN(), int32(0), uint8(3))
	f.Add(raw, h, uint8(3), eq, math.Inf(1), 0.0, int32(-8), uint8(3))
	f.Add(raw, h, uint8(2), eq, 0.0, 0.0, int32(0), uint8(3))              // 3-D keys at dim 2
	f.Add(raw, uint8(7), uint8(3), uint8(9), 0.0, 0.0, int32(0), uint8(8)) // unknown kind and mode, ranks 0
	f.Add(raw, h, uint8(3), eq, 0.0, 0.0, int32(0), uint8(11))             // ranks 1<<20
	f.Add([]byte("not a key stream"), h, uint8(3), eq, 0.0, 0.0, int32(0), uint8(3))
	// Reversed, with every fourth key sent twice: a miss under 6 ranks.
	var dup []byte
	for i := len(cached) - 1; i >= 0; i-- {
		dup = cached[i].AppendElem(dup)
		if i%4 == 0 {
			dup = cached[i].AppendElem(dup)
		}
	}
	f.Add(dup, h, uint8(3), eq, 0.0, 0.0, int32(0), uint8(5))
	// Every eighth key preceded by its grandparent, which linearization
	// drops: a ModelDriven miss.
	var anc []byte
	for i, k := range cached {
		if i%8 == 0 && k.Level >= 2 {
			anc = k.Ancestor(k.Level - 2).AppendElem(anc)
		}
		anc = k.AppendElem(anc)
	}
	f.Add(anc, h, uint8(3), md, 0.0, 0.0, int32(0), uint8(2))
	// Both, on the Morton curve in FlexibleTolerance.
	f.Add(append(anc, dup[:13*40]...), uint8(sfc.Morton), uint8(3), ft, 0.2, 0.0, int32(0), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, kind, dim, mode uint8, tol, alpha float64, payload int32, ranks uint8) {
		req := Request{
			Keys:         fuzzKeys(raw),
			CurveKind:    sfc.Kind(int8(kind)),
			Dim:          int(int8(dim)),
			Ranks:        fuzzRanks(ranks),
			Mode:         partition.Mode(int8(mode)),
			Tol:          tol,
			Machine:      machine.Clemson32(),
			Alpha:        alpha,
			PayloadBytes: int(payload),
		}
		resp, hit, err := s.Do(req)
		if err != nil {
			return
		}
		if !hit {
			res, counts := directPartition(req)
			if !slices.Equal(resp.Splitters.Seps, res.Splitters.Seps) || resp.Quality != res.Quality ||
				resp.Predicted != res.Predicted || resp.Rounds != res.Rounds ||
				resp.AchievedTol != res.AchievedTol || !slices.Equal(resp.Counts, counts) {
				t.Fatalf("computed response (seps %v, %+v, Tp %g, %d rounds, tol %g, counts %v) differs from a direct partition (seps %v, %+v, Tp %g, %d rounds, tol %g, counts %v)",
					resp.Splitters.Seps, resp.Quality, resp.Predicted, resp.Rounds, resp.AchievedTol, resp.Counts,
					res.Splitters.Seps, res.Quality, res.Predicted, res.Rounds, res.AchievedTol, counts)
			}
		}
		sum := 0
		for _, c := range resp.Counts {
			sum += c
		}
		if resp.Splitters.P() != req.Ranks || len(resp.Counts) != req.Ranks || sum != resp.NumKeys {
			t.Fatalf("response of P %d, %d counts summing to %d, for %d ranks over %d keys",
				resp.Splitters.P(), len(resp.Counts), sum, req.Ranks, resp.NumKeys)
		}
	})
}

// readWriter is an in-memory connection: requests in, responses out.
type readWriter struct {
	io.Reader
	io.Writer
}
