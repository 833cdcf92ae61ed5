package main

import (
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/service"
	"optipart/internal/sfc"
)

// dialWait bounds how long a client retries a service that is not yet
// accepting.
const dialWait = 30 * time.Second

// wireClient speaks the service's gob protocol over one connection: write a
// WireRequest, read its WireResponse, strictly alternating.
type wireClient struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// dialService connects to the service listening at path. A daemon process
// may still be binding it, so refused dials are retried for up to dialWait.
func dialService(t *testing.T, path string) *wireClient {
	t.Helper()
	var conn net.Conn
	var err error
	for until := time.Now().Add(dialWait); ; time.Sleep(20 * time.Millisecond) {
		if conn, err = net.Dial("unix", path); err == nil || time.Now().After(until) {
			break
		}
	}
	if err != nil {
		t.Fatalf("the service at %s did not accept within %v: %v", path, dialWait, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// do sends one request and reports whether the service answered it from
// its cache.
func (c *wireClient) do(keys []sfc.Key) (hit bool, err error) {
	wr := service.FromRequest(service.Request{
		Keys:      keys,
		CurveKind: sfc.Hilbert,
		Dim:       3,
		Ranks:     4,
		Mode:      partition.ModelDriven,
		Machine:   machine.Clemson32(),
	})
	if err := c.enc.Encode(&wr); err != nil {
		return false, err
	}
	var resp service.WireResponse
	if err := c.dec.Decode(&resp); err != nil {
		return false, err
	}
	if resp.Err != "" {
		return false, errors.New(resp.Err)
	}
	return resp.Hit, nil
}

// TestServeDrain drives the daemon's accept/drain loop over a unix socket
// the way a fleet of clients would: two concurrent connections prime four
// octrees and repeat them, and every repeat must be a cache hit; a fifth,
// distinct octree must not be. A third connection stays idle throughout,
// and the drain must still return within 5 s — a serve loop that waits for
// idle clients to hang up never does — with the request count exact.
func TestServeDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.sock")
	if len(path) >= 108 {
		t.Fatalf("socket path %q is %d bytes, past sun_path's 108", path, len(path))
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Slots: 2})
	defer svc.Close()
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(ln, svc, stop) }()

	idle := dialService(t, path)

	rng := rand.New(rand.NewSource(1))
	octrees := make([][]sfc.Key, 5)
	for i := range octrees {
		octrees[i] = octree.RandomKeys(rng, 2000, 3, octree.Normal, 2, 14)
	}
	clients := []*wireClient{dialService(t, path), dialService(t, path)}
	sent := 0

	// Each client runs its requests concurrently with the other's.
	each := func(run func(c int, cl *wireClient) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = run(c, cl)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	// Prime: client c sends octrees c and c+2, all new to the cache.
	each(func(c int, cl *wireClient) error {
		for i := c; i < 4; i += len(clients) {
			if _, err := cl.do(octrees[i]); err != nil {
				return err
			}
		}
		return nil
	})
	sent += 4
	// Repeat: both clients send all four, and every one must hit.
	each(func(c int, cl *wireClient) error {
		for i := range 4 {
			hit, err := cl.do(octrees[i])
			if err != nil {
				return err
			}
			if !hit {
				return errors.New("a repeat of a primed octree missed the cache")
			}
		}
		return nil
	})
	sent += 2 * 4
	if hit, err := clients[0].do(octrees[4]); err != nil || hit {
		t.Fatalf("distinct octree: hit=%v err=%v, want a miss", hit, err)
	}
	sent++

	stop <- syscall.SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain still waiting 5 s after the stop signal with an idle connection open")
	}
	if got := svc.Metrics().Requests; got != uint64(sent) {
		t.Errorf("service counted %d requests, want the %d sent", got, sent)
	}
	// The drain closed the idle connection from the server's side.
	_ = idle.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := idle.conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("idle connection after the drain: read err = %v, want EOF", err)
	}
}
