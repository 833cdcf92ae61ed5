package service

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

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
		Tenant:    "t",
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

func TestServiceValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	keys := testKeys(2, 10)
	for _, req := range []Request{
		{Keys: nil, Dim: 3, Ranks: 2, CurveKind: sfc.Morton},
		{Keys: keys, Dim: 4, Ranks: 2, CurveKind: sfc.Morton},
		{Keys: keys, Dim: 3, Ranks: 0, CurveKind: sfc.Morton},
		{Keys: keys, Dim: 3, Ranks: maxRanks + 1, CurveKind: sfc.Morton},
	} {
		if _, _, err := s.Do(req); err == nil {
			t.Fatalf("Do(%+v) accepted invalid request", req)
		}
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
		"tol":     func(r *Request) { r.Tol = 0.25 },
		"alpha":   func(r *Request) { r.Alpha = 16 },
		"payload": func(r *Request) { r.PayloadBytes = 512 },
		"machine": func(r *Request) { r.Machine = machine.Titan() },
		"prior":   func(r *Request) { r.Prior = HandleFromWords(1, 2) },
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		if digestRequest(&r, canon) == d0 {
			t.Fatalf("mutating %s did not change the digest", name)
		}
	}
	// Tenant is accounting identity, not content: it must NOT change it.
	r := base
	r.Tenant = "other"
	if digestRequest(&r, canon) != d0 {
		t.Fatal("tenant changed the digest")
	}
	// With a prior set, the horizon is part of the question.
	w1, w2 := base, base
	w1.Prior, w2.Prior = HandleFromWords(1, 2), HandleFromWords(1, 2)
	w2.Horizon = 80
	if digestRequest(&w1, canon) == digestRequest(&w2, canon) {
		t.Fatal("horizon did not change a warm digest")
	}

	// Any single key field flips it too.
	for _, mutate := range []func(*sfc.Key){
		func(k *sfc.Key) { k.X ^= 1 << 10 },
		func(k *sfc.Key) { k.Y ^= 1 << 10 },
		func(k *sfc.Key) { k.Z ^= 1 << 10 },
		func(k *sfc.Key) { k.Level ^= 1 },
	} {
		mut := append([]sfc.Key(nil), canon...)
		mutate(&mut[len(mut)/2])
		if digestRequest(&base, mut) == d0 {
			t.Fatal("mutating a key did not change the digest")
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
			canon, _ := canonicalize(&r, &a)
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
	if !cs.queue.Acquire("blocker") {
		t.Fatal("acquire on a fresh queue failed")
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
	cs.queue.Release("blocker", 0)
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

// TestServiceConcurrentMixed drives distinct octrees from multiple tenants
// concurrently; every response must be internally consistent and every
// repeat identical. Run under -race in CI.
func TestServiceConcurrentMixed(t *testing.T) {
	s := New(Config{Slots: 2})
	defer s.Close()
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = baseRequest(testKeys(int64(20+i), 4000+500*i))
		reqs[i].Tenant = string(rune('a' + i%2))
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

// TestServiceWarmRepartition drives a two-step online loop: a cold request
// names its placement via Response.Handle, the next step's octree passes it
// back as Prior, and the warm response carries the migration bill.
func TestServiceWarmRepartition(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	ev := octree.NewEvolver(curve, 7, octree.Linearize(curve, testKeys(40, 4000)))

	cold := baseRequest(append([]sfc.Key(nil), ev.Leaves()...))
	cold.Mode = partition.ModelDriven
	cold.Machine = machine.Titan()
	r1, hit, err := s.Do(cold)
	if err != nil || hit {
		t.Fatalf("cold Do: hit=%v err=%v", hit, err)
	}
	if r1.Handle.IsZero() {
		t.Fatal("cold response has a zero handle")
	}
	if r1.MovedElements != 0 || r1.MovedBytes != 0 {
		t.Fatalf("cold response reports movement: %d elements", r1.MovedElements)
	}

	ev.Step(0.05, 0.05)
	warm := cold
	warm.Keys = append([]sfc.Key(nil), ev.Leaves()...)
	warm.Prior = r1.Handle
	warm.Horizon = 50
	r2, hit, err := s.Do(warm)
	if err != nil || hit {
		t.Fatalf("warm Do: hit=%v err=%v", hit, err)
	}
	if r2.Handle.IsZero() || r2.Handle == r1.Handle {
		t.Fatal("warm response handle missing or aliases the prior")
	}
	if r2.Splitters.P() != warm.Ranks {
		t.Fatalf("warm splitters P = %d, want %d", r2.Splitters.P(), warm.Ranks)
	}
	if r2.MovedBytes != r2.MovedElements*machine.GhostPayloadBytes {
		t.Fatalf("moved bytes %d != %d elements x default payload", r2.MovedBytes, r2.MovedElements)
	}
	if r2.MovedElements == 0 {
		// Kept the prior placement: the separators must be inherited.
		for i, sep := range r2.Splitters.Seps {
			if sep != r1.Splitters.Seps[i] {
				t.Fatal("no movement reported but separators changed")
			}
		}
	}
	if m := s.Metrics(); m.PriorMisses != 0 {
		t.Fatalf("prior resolved from cache but PriorMisses = %d", m.PriorMisses)
	}

	// The warm answer is cached under the chained digest: a repeat is a hit
	// sharing the same response, and the cold digest for the same octree is
	// a distinct entry.
	r2b, hit, err := s.Do(warm)
	if err != nil || !hit || r2b != r2 {
		t.Fatalf("warm repeat: hit=%v err=%v shared=%v", hit, err, r2b == r2)
	}
	coldAgain := warm
	coldAgain.Prior = Handle{}
	coldAgain.Horizon = 0
	r3, hit, err := s.Do(coldAgain)
	if err != nil || hit {
		t.Fatalf("cold request after warm: hit=%v err=%v (want miss)", hit, err)
	}
	if r3.Handle == r2.Handle {
		t.Fatal("cold and warm answers share a digest")
	}

	// Chaining continues: the warm handle seeds the next step.
	ev.Step(0.05, 0.05)
	warm3 := warm
	warm3.Keys = append([]sfc.Key(nil), ev.Leaves()...)
	warm3.Prior = r2.Handle
	if _, hit, err := s.Do(warm3); err != nil || hit {
		t.Fatalf("third step: hit=%v err=%v", hit, err)
	}
}

// TestServicePriorEvictionFallsBack: a stale handle (its placement evicted)
// must not fail the request — it computes cold and counts a PriorMiss.
func TestServicePriorEvictionFallsBack(t *testing.T) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	const na = 1000
	mk := func(seed int64) Request {
		keys := octree.Linearize(curve, testKeys(seed, 1600))
		if len(keys) < na {
			t.Fatalf("seed %d linearized to %d keys, need %d", seed, len(keys), na)
		}
		r := baseRequest(keys[:na])
		r.Mode = partition.ModelDriven
		r.Machine = machine.Titan()
		return r
	}
	s := New(Config{MaxCachedKeys: 2 * na})
	defer s.Close()

	a := mk(50)
	ra, _, err := s.Do(a)
	if err != nil {
		t.Fatal(err)
	}
	// Two more distinct octrees push a's placement out of the cache.
	// (Re-requesting a here would re-cache it and defeat the test.)
	for seed := int64(51); seed <= 52; seed++ {
		if _, _, err := s.Do(mk(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Evictions == 0 {
		t.Fatalf("eviction bound not exercised: %+v", m)
	}

	warm := mk(53)
	warm.Prior = ra.Handle
	r, hit, err := s.Do(warm)
	if err != nil || hit {
		t.Fatalf("stale-prior Do: hit=%v err=%v", hit, err)
	}
	if r.MovedElements != 0 || r.KeptSeps != 0 {
		t.Fatalf("cold fallback reports warm accounting: moved=%d kept=%d", r.MovedElements, r.KeptSeps)
	}
	if m := s.Metrics(); m.PriorMisses == 0 {
		t.Fatalf("stale prior not counted: %+v", m)
	}
}

// TestZeroAllocCacheHitWarm: the hit path with a Prior handle folds three
// more words into the digest and must stay allocation-free.
func TestZeroAllocCacheHitWarm(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	cold := baseRequest(testKeys(60, 2000))
	cold.Mode = partition.ModelDriven
	cold.Machine = machine.Titan()
	r1, _, err := s.Do(cold)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.Keys = append([]sfc.Key(nil), cold.Keys...)
	warm.Prior = r1.Handle
	warm.Horizon = 25
	if _, _, err := s.Do(warm); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := s.Do(warm); !hit {
		t.Fatal("warmup not a hit")
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, hit, err := s.Do(warm)
		if !hit || err != nil {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cache-hit path allocates %.1f objects per request, want 0", allocs)
	}
}

// TestZeroAllocCanonicalHitWarm: a warm (Prior-carrying) request on
// canonical keys hits through the fast path and allocates nothing, on both
// sides of psort's parallel cutoff.
func TestZeroAllocCanonicalHitWarm(t *testing.T) {
	for _, n := range []int{2000, 40000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := New(Config{})
			defer s.Close()
			cold := baseRequest(canonicalKeys(t, 60, n))
			cold.Mode = partition.ModelDriven
			cold.Machine = machine.Titan()
			r1, _, err := s.Do(cold)
			if err != nil {
				t.Fatal(err)
			}
			warm := cold
			warm.Prior = r1.Handle
			warm.Horizon = 25
			r2, hit, err := s.Do(warm)
			if err != nil || hit {
				t.Fatalf("warm prime: hit=%v err=%v", hit, err)
			}
			r, hit, canonicalized, err := doProbe(s, warm)
			if !hit || canonicalized || err != nil || r != r2 {
				t.Fatalf("hit=%v canonicalized=%v err=%v shared=%v, want a fast hit", hit, canonicalized, err, r == r2)
			}
			allocs := testing.AllocsPerRun(100, func() {
				_, hit, err := s.Do(warm)
				if !hit || err != nil {
					t.Fatalf("hit=%v err=%v", hit, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm canonical cache hit allocates %.1f objects per request, want 0", allocs)
			}
		})
	}
}

// TestWirePriorRoundTrip: the handle and migration fields survive the wire
// forms in both directions.
func TestWirePriorRoundTrip(t *testing.T) {
	req := baseRequest(testKeys(70, 50))
	req.Prior = HandleFromWords(0xdeadbeef, 0xfeedface)
	req.Horizon = 12.5
	wr := FromRequest(req)
	if wr.PriorHi != 0xdeadbeef || wr.PriorLo != 0xfeedface || wr.Horizon != 12.5 {
		t.Fatalf("wire request dropped the prior: %+v", wr)
	}
	back, err := wr.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if back.Prior != req.Prior || back.Horizon != req.Horizon {
		t.Fatalf("round trip changed the prior: %+v", back)
	}
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
	// A request for a million ranks would size a world past the host's
	// memory; it must be refused before any world is spawned.
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

// readWriter is an in-memory connection: requests in, responses out.
type readWriter struct {
	io.Reader
	io.Writer
}
