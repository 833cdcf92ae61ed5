package net

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	stdnet "net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"optipart/internal/ckpt"
	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// TestExchangeOracle: after Partition's exchange, every rank's Result.Local
// is TreeSort of the keys it was sent, which are every key of every rank's
// input that the adopted Splitters assign to it. The inputs hold an empty
// rank and keys duplicated within and across ranks. It covers p in {1, 2,
// 3, 16}, both curves, 2-D and 3-D, and all three modes, each in-process
// and over a unix-socket world, where the keys cross the wire with their
// ranks.
func TestExchangeOracle(t *testing.T) {
	model := machine.Clemson32().CostModel()
	modes := []partition.Mode{partition.EqualWork, partition.FlexibleTolerance, partition.ModelDriven}
	for _, p := range []int{1, 2, 3, 16} {
		for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Morton} {
			for _, dim := range []int{2, 3} {
				for _, mode := range modes {
					curve := sfc.NewCurve(kind, dim)
					inputs := exchangeInputs(int64(100*p+10*dim+int(mode)), p, dim)
					opts := partition.Options{Curve: curve, Mode: mode, Tol: 0.2, Machine: machine.Clemson32()}
					program := func(out *sync.Map) func(c *comm.Comm) error {
						return func(c *comm.Comm) error {
							res := partition.Partition(c, slices.Clone(inputs[c.Rank()]), opts)
							out.Store(c.Rank(), rankResult{seps: res.Splitters.Seps, local: res.Local})
							return nil
						}
					}
					name := fmt.Sprintf("p=%d/%v/%dD/%v", p, kind, dim, mode)
					t.Run(name+"/inproc", func(t *testing.T) {
						var out sync.Map
						if _, err := comm.RunChecked(p, model, program(&out)); err != nil {
							t.Fatalf("run: %v", err)
						}
						checkExchange(t, curve, inputs, &out)
					})
					t.Run(name+"/wire", func(t *testing.T) {
						var out sync.Map
						sock := filepath.Join(t.TempDir(), "x.sock")
						for rank, err := range runWireWorld(t, p, sock, model, fastOpts(), program(&out)) {
							if err != nil {
								t.Fatalf("wire rank %d: %v", rank, err)
							}
						}
						checkExchange(t, curve, inputs, &out)
					})
				}
			}
		}
	}
}

// exchangeInputs draws p ranks' keys: rank 1 holds none, every other rank
// repeats a quarter of its own keys, and the last rank repeats rank 0's
// first keys.
func exchangeInputs(seed int64, p, dim int) [][]sfc.Key {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]sfc.Key, p)
	for r := range inputs {
		if r == 1 {
			continue
		}
		keys := octree.RandomKeys(rng, 200+rng.Intn(200), dim, octree.Normal, 1, 12)
		inputs[r] = append(keys, keys[:len(keys)/4]...)
	}
	if p > 2 {
		inputs[p-1] = append(inputs[p-1], inputs[0][:20]...)
	}
	return inputs
}

// checkExchange fails t unless every rank of out adopted the same
// separators and holds exactly TreeSort of the input keys they assign to it.
func checkExchange(t *testing.T, curve *sfc.Curve, inputs [][]sfc.Key, out *sync.Map) {
	t.Helper()
	p := len(inputs)
	first, ok := out.Load(0)
	if !ok {
		t.Fatal("rank 0 stored no result")
	}
	sp := &partition.Splitters{Curve: curve, Seps: first.(rankResult).seps}
	sent := make([][]sfc.Key, p)
	for _, keys := range inputs {
		for _, k := range keys {
			o := sp.Owner(k)
			sent[o] = append(sent[o], k)
		}
	}
	for rank := 0; rank < p; rank++ {
		v, ok := out.Load(rank)
		if !ok {
			t.Fatalf("rank %d stored no result", rank)
		}
		res := v.(rankResult)
		if !slices.Equal(res.seps, sp.Seps) {
			t.Fatalf("rank %d adopted separators %v, rank 0 %v", rank, res.seps, sp.Seps)
		}
		want := slices.Clone(sent[rank])
		psort.TreeSort(curve, want)
		if !slices.Equal(res.local, want) {
			t.Fatalf("rank %d holds %d keys after the exchange, want TreeSort of the %d it was sent", rank, len(res.local), len(want))
		}
	}
}

// TestAlltoallvResultFramesPersonal: over a unix-socket world, the root
// writes each worker an Alltoallv result frame that carries exactly the
// worker's column less its own run, which the worker takes from its send,
// while an Allreduce result stays one frame shared by every worker. The
// payload sizes are asserted from the run lengths, and every rank's
// received runs against what each source sent it.
func TestAlltoallvResultFramesPersonal(t *testing.T) {
	// runLen is the number of int64s rank src sends rank dst.
	runLen := func(src, dst int) int { return (3*src+5*dst)%7 + 1 }
	for _, p := range []int{3, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			var mu sync.Mutex
			bad := map[int]string{}
			program := func(c *comm.Comm) error {
				r := c.Rank()
				comm.Allreduce(c, []int64{int64(r), 1}, 8, comm.SumI64)
				send := make([][]int64, p)
				for dst := range send {
					for i := 0; i < runLen(r, dst); i++ {
						send[dst] = append(send[dst], int64(1000*r+dst))
					}
				}
				recv := comm.Alltoallv(c, send, 8, comm.AlltoallvOptions{})
				for src, run := range recv {
					if len(run) != runLen(src, r) || (len(run) > 0 && run[0] != int64(1000*src+r)) {
						mu.Lock()
						bad[r] = fmt.Sprintf("run from %d is %v", src, run)
						mu.Unlock()
					}
				}
				return nil
			}
			opts := fastOpts()
			opts.OnFailure = Restore // the result log keeps every step
			root, errs := runWireRoot(t, p, filepath.Join(t.TempDir(), "f.sock"), comm.CostModel{}, opts, program)
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for rank, msg := range bad {
				t.Fatalf("rank %d: %s", rank, msg)
			}
			root.mu.Lock()
			reduce, exchange := root.resultLog[0], root.resultLog[1]
			root.mu.Unlock()
			payload := func(frame []byte) int {
				t.Helper()
				f, err := readOne(frame)
				if err != nil {
					t.Fatalf("logged frame: %v", err)
				}
				return len(f.Payload)
			}
			for rank := 1; rank < p; rank++ {
				if &reduce[rank][0] != &reduce[1][0] {
					t.Fatalf("rank %d's allreduce result is a frame of its own", rank)
				}
				if got, want := payload(reduce[rank]), 8+4+2*8; got != want {
					t.Fatalf("rank %d's allreduce payload is %d bytes, want %d", rank, got, want)
				}
				// The end clock, the run count, then p runs: every other
				// source's elements, and this rank's own run empty.
				want := 8 + 4 + 4*p
				for src := 0; src < p; src++ {
					if src != rank {
						want += 8 * runLen(src, rank)
					}
				}
				if got := payload(exchange[rank]); got != want {
					t.Fatalf("rank %d's alltoallv payload is %d bytes, want %d", rank, got, want)
				}
			}
		})
	}
}

// TestForgedAlltoallvDepositBlamesSender: an Alltoallv deposit whose run
// count is not p, or whose run is longer than the bytes left, fails the
// world naming its sender, from the root's split of the deposit and not
// from a panic inside rank 0's compute closure. Both workers are raw
// sockets that join, wait for the welcome and send one deposit frame.
func TestForgedAlltoallvDepositBlamesSender(t *testing.T) {
	const p = 3
	k := func(runs ...[]int64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(runs)))
		for _, r := range runs {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
			for _, v := range r {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
		return b
	}
	valid := k(nil, []int64{1}, nil)
	for _, tc := range []struct {
		name   string
		forged []byte
	}{
		{"one run", k([]int64{1})},
		{"two runs", k([]int64{1}, nil)},
		{"four runs", k(nil, nil, nil, nil)},
		// The run to rank 1 declares one element, and 4 of its 8 bytes
		// are left.
		{"run past the end", valid[:16]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sock := filepath.Join(t.TempDir(), "x.sock")
			opts := fastOpts()
			opts.HeartbeatTimeout = testWait
			root, err := NewRoot("unix:"+sock, p, opts)
			if err != nil {
				t.Fatalf("NewRoot: %v", err)
			}
			defer root.Close()
			done := make(chan error, p-1)
			for rank := 1; rank < p; rank++ {
				value := valid
				if rank == 2 {
					value = tc.forged
				}
				go func() { done <- rawDeposit(sock, rank, p, "alltoallv", value) }()
			}
			if err := root.WaitReady(testWait); err != nil {
				t.Fatalf("WaitReady: %v", err)
			}
			root.Announce(comm.CostModel{})
			_, err = comm.RunRank(0, p, comm.CostModel{}, root, comm.CheckedOptions{}, func(c *comm.Comm) error {
				comm.Alltoallv(c, [][]int64{{1}, {2}, {3}}, 8, comm.AlltoallvOptions{})
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "net: rank 2 deposit for alltoallv undecodable") ||
				strings.Contains(err.Error(), "runtime error") {
				t.Fatalf("got %v, want rank 2's deposit refused as undecodable", err)
			}
			root.Close()
			for rank := 1; rank < p; rank++ {
				if err, werr := await("a raw worker to send its deposit", done); werr != nil || err != nil {
					t.Fatalf("raw worker: %v %v", err, werr)
				}
			}
		})
	}
}

// rawDeposit joins a p-rank world at sock as rank over a bare socket,
// waits for the welcome, sends one deposit frame for seq 0 of op whose
// value is the given bytes, and drains the link until the root closes it.
func rawDeposit(sock string, rank, p int, op string, value []byte) error {
	conn, err := stdnet.Dial("unix", sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	hello, _ := appendFrame(nil, &Frame{Type: fHello, Src: int32(rank)},
		helloBody{Rank: rank, P: p, Resume: noSeq}.append)
	if _, err := conn.Write(hello); err != nil {
		return err
	}
	for {
		conn.SetReadDeadline(time.Now().Add(testWait))
		f, err := ReadFrame(conn)
		if err != nil {
			return err
		}
		if f.Type == fWelcome {
			break
		}
	}
	dep, _ := appendFrame(nil, &Frame{Type: fDeposit, Src: int32(rank), Op: op},
		depositBody{ElemBytes: 8, Phase: "main", Value: value}.append)
	if _, err := conn.Write(dep); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

// TestEveryFlippedByteRefused: a sealed frame and a sealed checkpoint
// snapshot are each refused after any one of their bytes is flipped, the
// last byte the seal covers and the seal's own bytes included.
func TestEveryFlippedByteRefused(t *testing.T) {
	frame := mustEncode(t, &Frame{Type: fDeposit, Src: 1, Seq: 5, Op: "alltoallv", Payload: []byte("a deposit")})
	keys := []sfc.Key{{X: 1, Y: 2, Z: 3, Level: 4}, {X: 5, Level: 6}}
	snap, err := ckpt.EncodeSnapshot(&ckpt.Snapshot{Epoch: 2, Seq: 9, P: 2, Kind: sfc.Hilbert, Dim: 3,
		Seps: keys[1:], Placement: [][]sfc.Key{keys[:1], keys[1:]}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sealed []byte
		decode func([]byte) error
	}{
		{"frame", frame, func(b []byte) error { _, err := readOne(b); return err }},
		{"snapshot", snap, func(b []byte) error { _, err := ckpt.DecodeSnapshot(b); return err }},
	} {
		if err := tc.decode(tc.sealed); err != nil {
			t.Fatalf("%s: the unflipped bytes are refused: %v", tc.name, err)
		}
		for i := range tc.sealed {
			mut := bytes.Clone(tc.sealed)
			mut[i] ^= 0x01
			if tc.decode(mut) == nil {
				t.Fatalf("%s: flipping byte %d of %d was accepted", tc.name, i, len(mut))
			}
		}
	}
}
