package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/octree"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// testSnapshot builds a representative snapshot with uneven placements.
func testSnapshot(t testing.TB, seed int64, p int) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	placement := make([][]sfc.Key, p)
	for r := range placement {
		placement[r] = octree.RandomKeys(rng, 5+7*r, 3, octree.Normal, 2, 12)
	}
	return &Snapshot{
		Epoch:     3,
		Seq:       417,
		P:         p,
		Kind:      sfc.Hilbert,
		Dim:       3,
		Model:     comm.CostModel{Tc: 1e-9, Ts: 2.5e-6, Tw: 3e-9},
		Digest:    0xdeadbeefcafef00d,
		Seps:      octree.RandomKeys(rng, p-1, 3, octree.Uniform, 1, 6),
		Placement: placement,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		snap := testSnapshot(t, int64(p)*11, p)
		buf, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("p=%d encode: %v", p, err)
		}
		buf2, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("p=%d re-encode: %v", p, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("p=%d: encoding is not deterministic", p)
		}
		got, err := DecodeSnapshot(buf)
		if err != nil {
			t.Fatalf("p=%d decode: %v", p, err)
		}
		if got.Epoch != snap.Epoch || got.Seq != snap.Seq || got.P != snap.P ||
			got.Kind != snap.Kind || got.Dim != snap.Dim || got.Model != snap.Model ||
			got.Digest != snap.Digest {
			t.Fatalf("p=%d header mismatch: got %+v", p, got)
		}
		if len(got.Seps) != len(snap.Seps) {
			t.Fatalf("p=%d seps: got %d want %d", p, len(got.Seps), len(snap.Seps))
		}
		for i, k := range snap.Seps {
			if got.Seps[i] != k {
				t.Fatalf("p=%d sep %d mismatch", p, i)
			}
		}
		for r := range snap.Placement {
			if len(got.Placement[r]) != len(snap.Placement[r]) {
				t.Fatalf("p=%d rank %d count mismatch", p, r)
			}
			for i, k := range snap.Placement[r] {
				if got.Placement[r][i] != k {
					t.Fatalf("p=%d rank %d key %d mismatch", p, r, i)
				}
			}
		}
		// The decode→encode path is canonical: bit-identical bytes back out.
		re, err := EncodeSnapshot(got)
		if err != nil {
			t.Fatalf("p=%d encode of decoded: %v", p, err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("p=%d: decode→encode is not bit-identical", p)
		}
	}
}

// The offset of the splitter count: the magic and version, then epoch,
// seq, kind, dim, the model's three floats and the digest.
const sepsCountAt = 4 + 1 + 8 + 8 + 1 + 1 + 24 + 8

// reseal replaces buf's seal with a valid one, so that a forged field
// reaches the reader instead of dying at the checksum.
func reseal(buf []byte) []byte {
	return comm.Seal(bytes.Clone(buf[:len(buf)-comm.SealLen]), 0)
}

// forgeCount overwrites the uint32 count at off in an encoding of s and
// reseals it.
func forgeCount(tb testing.TB, s *Snapshot, off int, count uint32) []byte {
	tb.Helper()
	buf, err := EncodeSnapshot(s)
	if err != nil {
		tb.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[off:], count)
	return reseal(buf)
}

func TestDecodeSnapshotRejects(t *testing.T) {
	good, err := EncodeSnapshot(testSnapshot(t, 7, 4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, buf []byte, want error) {
		t.Helper()
		if _, err := DecodeSnapshot(buf); !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}
	check("empty", nil, comm.ErrShort)
	check("truncated header", good[:20], comm.ErrShort)
	check("truncated body", good[:len(good)-9], comm.ErrChecksum)

	bad := bytes.Clone(good)
	bad[0] = 'X'
	check("magic", bad, comm.ErrMagic)

	bad = bytes.Clone(good)
	bad[4] = 99
	check("version", bad, comm.ErrVersion)

	// A version-1 snapshot, from before the byte layer, is refused from its
	// header even though its seal holds.
	bad = bytes.Clone(good)
	bad[4] = 1
	check("version 1", reseal(bad), comm.ErrVersion)

	// A version-2 snapshot, sealed with an 8-byte FNV-1a sum, is refused
	// from its header too, not as a bad checksum.
	bad = bytes.Clone(good[:len(good)-comm.SealLen])
	bad[4] = 2
	check("version 2", binary.BigEndian.AppendUint64(bad, par.FNV1a(par.FNVOffset64, bad)), comm.ErrVersion)

	bad = bytes.Clone(good)
	bad[len(bad)/2] ^= 1
	check("flipped body bit", bad, comm.ErrChecksum)

	bad = bytes.Clone(good)
	bad[len(bad)-1] ^= 1
	check("flipped trailer bit", bad, comm.ErrChecksum)

	check("trailing garbage", append(bytes.Clone(good), 0), comm.ErrChecksum)
	check("resealed trailing garbage", reseal(append(bytes.Clone(good), 0)), comm.ErrTrailing)

	// Forged counts under a valid seal are refused by the reader before
	// anything is allocated for them.
	snap := testSnapshot(t, 7, 4)
	ranksAt := sepsCountAt + 4 + keyBytes*len(snap.Seps)
	check("forged splitter count", forgeCount(t, snap, sepsCountAt, 1<<30), comm.ErrShort)
	check("forged rank-section count", forgeCount(t, snap, ranksAt, 1<<30), comm.ErrShort)
	check("forged key count", forgeCount(t, snap, ranksAt+4, 1<<30), comm.ErrShort)

	none, err := EncodeSnapshot(&Snapshot{P: 1, Placement: make([][]sfc.Key, 1)})
	if err != nil {
		t.Fatal(err)
	}
	none = comm.Seal(binary.LittleEndian.AppendUint32(none[:sepsCountAt+4], 0), 0)
	check("no rank sections", none, ErrSnapshotRange)
}

func TestEncodeSnapshotRejects(t *testing.T) {
	snap := testSnapshot(t, 9, 3)
	snap.P = 0
	if _, err := EncodeSnapshot(snap); !errors.Is(err, ErrSnapshotRange) {
		t.Fatalf("p=0: got %v", err)
	}
	snap = testSnapshot(t, 9, 3)
	snap.Placement = snap.Placement[:2]
	if _, err := EncodeSnapshot(snap); !errors.Is(err, ErrSnapshotRange) {
		t.Fatalf("short placement: got %v", err)
	}
	snap = testSnapshot(t, 9, 3)
	snap.Epoch = -1
	if _, err := EncodeSnapshot(snap); !errors.Is(err, ErrSnapshotRange) {
		t.Fatalf("negative epoch: got %v", err)
	}
}

func TestDigestFoldOrderSensitive(t *testing.T) {
	a := octree.RandomKeys(rand.New(rand.NewSource(1)), 8, 3, octree.Uniform, 1, 6)
	b := octree.RandomKeys(rand.New(rand.NewSource(2)), 8, 3, octree.Uniform, 1, 6)
	d1 := DigestFold(DigestInit, 0, [][]sfc.Key{a, b})
	d2 := DigestFold(DigestInit, 0, [][]sfc.Key{b, a})
	if d1 == d2 {
		t.Fatal("digest ignores rank order")
	}
	if DigestFold(DigestInit, 0, [][]sfc.Key{a, b}) != d1 {
		t.Fatal("digest is not deterministic")
	}
	if DigestFold(DigestInit, 1, [][]sfc.Key{a, b}) == d1 {
		t.Fatal("digest ignores the step index")
	}
}

func mustEncodeSnap(f *testing.F, s *Snapshot) []byte {
	buf, err := EncodeSnapshot(s)
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// FuzzDecodeSnapshot asserts the checkpoint decoder's safety contract on
// arbitrary input, mirroring FuzzDecodeBodies: it may reject, but it must
// never panic, never allocate more than a small multiple of its input
// (every count is checked against the bytes left before allocation), must
// reject bad checksums, and anything it accepts must re-encode to the
// identical bytes. The last seeds forge counts under a valid seal, so
// that they reach the reader.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("OCKP"))
	f.Add(mustEncodeSnap(f, testSnapshot(f, 3, 1)))
	f.Add(mustEncodeSnap(f, testSnapshot(f, 5, 4)))
	f.Add(mustEncodeSnap(f, &Snapshot{Epoch: 0, P: 2, Placement: make([][]sfc.Key, 2)}))
	f.Add(mustEncodeSnap(f, testSnapshot(f, 11, 3))[:60])
	corrupt := mustEncodeSnap(f, testSnapshot(f, 13, 2))
	corrupt[len(corrupt)-3] ^= 0x40
	f.Add(corrupt)
	snap := testSnapshot(f, 17, 3)
	ranksAt := sepsCountAt + 4 + keyBytes*len(snap.Seps)
	f.Add(forgeCount(f, snap, sepsCountAt, 1<<20))
	f.Add(forgeCount(f, snap, ranksAt, 1<<20))
	f.Add(forgeCount(f, snap, ranksAt+4, 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		re, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", data, re)
		}
	})
}
