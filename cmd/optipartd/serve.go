package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"optipart"
	wnet "optipart/internal/net"
)

// serveMain runs the partitioning service: bind the endpoint (the wire
// transport's grammar, so tcp::port is loopback), accept client
// connections, and run the gob request/response loop per connection. Every
// client shares one Service, so concurrent campaigns share its cache, its
// singleflight groups, and its fair admission slots. SIGTERM/SIGINT drains:
// the listener closes, in-flight requests finish, and the final cache
// metrics go to stderr.
func serveMain(endpoint string, slots, cacheKeys int) error {
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

	var draining atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "optipartd: %v: draining service\n", sig)
		draining.Store(true)
		ln.Close()
	}()

	fmt.Printf("optipartd: serving partition requests on %s (slots=%d)\n", endpoint, slots)
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if draining.Load() || errors.Is(err, net.ErrClosed) {
				break
			}
			return err
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := optipart.ServeServiceConn(svc, conn); err != nil {
				fmt.Fprintf(os.Stderr, "optipartd: client %v: %v\n", conn.RemoteAddr(), err)
			}
		}(conn)
	}
	wg.Wait()
	svc.Close()
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr,
		"optipartd: served %d requests: %d hits, %d coalesced, %d misses, %d collisions, %d evictions; cache %d entries / %d keys\n",
		m.Requests, m.Hits, m.Coalesced, m.Misses, m.Collisions, m.Evictions, m.CachedEntries, m.CachedKeys)
	return nil
}
