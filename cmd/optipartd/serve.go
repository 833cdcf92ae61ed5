package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"optipart"
	wnet "optipart/internal/net"
)

// serveMain runs the partitioning service: bind the endpoint (the wire
// transport's grammar, so tcp::port is loopback), serve client connections
// until a signal arrives on stop, and print the final cache metrics to
// stderr. Every client shares one Service, so concurrent campaigns share
// its cache, its singleflight groups, and its admission slots.
func serveMain(endpoint string, slots, cacheKeys int, stop <-chan os.Signal) error {
	network, addr, err := wnet.SplitEndpoint(endpoint)
	if err != nil {
		return err
	}
	if network == "unix" {
		// A stale socket from a previous run would fail the bind.
		_ = os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	svc := optipart.NewService(optipart.ServiceConfig{Slots: slots, MaxCachedKeys: cacheKeys})

	fmt.Printf("optipartd: serving partition requests on %s (slots=%d)\n", endpoint, slots)
	err = serve(ln, svc, stop)
	svc.Close()
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr,
		"optipartd: served %d requests: %d hits, %d coalesced, %d misses, %d collisions, %d evictions; cache %d entries / %d keys\n",
		m.Requests, m.Hits, m.Coalesced, m.Misses, m.Collisions, m.Evictions, m.CachedEntries, m.CachedKeys)
	return err
}

// serve is the accept/drain loop: one goroutine per client connection runs
// the gob request/response loop. A signal on stop closes the listener, and
// the loop drains: every open connection gets a past read deadline, so a
// client idling between requests cannot hold the drain open, while a
// request already being computed still writes its response. serve returns
// once every connection has closed.
func serve(ln net.Listener, svc *optipart.PartitionService, stop <-chan os.Signal) error {
	var (
		mu    sync.Mutex
		conns = map[net.Conn]bool{}
		wg    sync.WaitGroup
		done  = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "optipartd: %v: draining service\n", sig)
		case <-done:
		}
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			close(done) // the watcher closes ln if this error was not its doing
			mu.Lock()
			for conn := range conns {
				_ = conn.SetReadDeadline(time.Now())
			}
			mu.Unlock()
			wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = true
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Only the drain sets a deadline, so a timeout is no client error.
			if err := optipart.ServeServiceConn(svc, conn); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "optipartd: client %v: %v\n", conn.RemoteAddr(), err)
			}
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			conn.Close()
		}()
	}
}
