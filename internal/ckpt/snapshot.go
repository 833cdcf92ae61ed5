// Package ckpt provides versioned, FNV-checksummed, deterministic snapshots
// of campaign state — the world's per-rank placement, the splitters that
// produced it, the octree epoch (completed refinement steps), and the
// machine model — plus a restore path that puts a respawned worker in a
// state bit-identical to its pre-failure self.
//
// A snapshot is taken at a collective boundary: every rank holds the same
// gathered placement (the gather is a priced collective, so checkpointing
// shows up in the modeled cost like any other communication), and the
// running campaign digest folds the full placement at every step, so "the
// restored run equals the fault-free run" is a single uint64 comparison.
// Snapshot.Seq records the transport's collective sequence number at the
// boundary; a restored worker hands it to the wire backend so the root can
// replay exactly the results the dead incarnation had not yet consumed.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"optipart/internal/comm"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// SnapshotVersion is the current encoding version. Decoders reject other
// versions rather than guessing at layouts.
const SnapshotVersion = 1

const (
	snapMagic = "OCKP"
	keyBytes  = 13 // X, Y, Z uint32 + Level uint8, the packed sfc.Key

	// fixedLen is the byte length of everything before the splitter and
	// placement sections: magic(4) + version(1) + epoch(4) + seq(8) + p(4) +
	// kind(1) + dim(1) + model(24) + digest(8) + nseps(4).
	fixedLen    = 4 + 1 + 4 + 8 + 4 + 1 + 1 + 24 + 8 + 4
	checksumLen = 8

	// MaxSnapshotRanks bounds the rank count a decoder will believe; real
	// worlds are far smaller, and the cap keeps a corrupt header from
	// provoking a giant allocation.
	MaxSnapshotRanks = 1 << 16
)

// Decode errors. All are wrapped with context; match with errors.Is.
var (
	ErrSnapshotShort    = errors.New("ckpt: snapshot truncated")
	ErrSnapshotMagic    = errors.New("ckpt: bad snapshot magic")
	ErrSnapshotVersion  = errors.New("ckpt: unsupported snapshot version")
	ErrSnapshotChecksum = errors.New("ckpt: snapshot checksum mismatch")
	ErrSnapshotTrailing = errors.New("ckpt: trailing bytes after snapshot")
	ErrSnapshotRange    = errors.New("ckpt: snapshot field out of range")
)

// Snapshot is the complete campaign state at one checkpoint boundary. It is
// identical on every rank at the moment it is taken; only rank 0 persists
// it, and a restored worker slices its own placement back out by rank.
type Snapshot struct {
	// Epoch is the number of completed campaign steps.
	Epoch int
	// Seq is the transport collective sequence number at the boundary: the
	// count of collectives each rank had entered when the snapshot's state
	// was settled. A restored worker resumes its wire session here.
	Seq uint64
	// P is the world size the campaign ran at.
	P int
	// Kind and Dim identify the space-filling curve.
	Kind sfc.Kind
	Dim  int
	// Model is the cost model the campaign's clocks ran under.
	Model comm.CostModel
	// Digest is the running campaign digest folded through Epoch steps.
	Digest uint64
	// Seps are the splitters of the last partition (p−1 keys).
	Seps []sfc.Key
	// Placement holds every rank's local elements in curve order.
	Placement [][]sfc.Key
}

// DigestInit is the seed of the running campaign digest.
const DigestInit uint64 = par.FNVOffset64

// DigestFold folds one step's settled placement into the running campaign
// digest. Every rank computes it over the same gathered placement, so the
// digest is world-global; comparing final digests is comparing the full
// byte-exact placement history of two runs.
func DigestFold(d uint64, step int, placement [][]sfc.Key) uint64 {
	var buf [keyBytes]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(step))
	d = par.FNV1a(d, buf[:8])
	for _, keys := range placement {
		binary.BigEndian.PutUint64(buf[:8], uint64(len(keys)))
		d = par.FNV1a(d, buf[:8])
		for _, k := range keys {
			putKey(buf[:], k)
			d = par.FNV1a(d, buf[:])
		}
	}
	return d
}

func putKey(dst []byte, k sfc.Key) {
	binary.BigEndian.PutUint32(dst[0:4], k.X)
	binary.BigEndian.PutUint32(dst[4:8], k.Y)
	binary.BigEndian.PutUint32(dst[8:12], k.Z)
	dst[12] = k.Level
}

func getKey(src []byte) sfc.Key {
	return sfc.Key{
		X:     binary.BigEndian.Uint32(src[0:4]),
		Y:     binary.BigEndian.Uint32(src[4:8]),
		Z:     binary.BigEndian.Uint32(src[8:12]),
		Level: src[12],
	}
}

// EncodeSnapshot renders s in the versioned wire form: a fixed header,
// big-endian fields, 13-byte packed keys, and an FNV-1a trailer over
// everything before it. Encoding is deterministic: the same Snapshot always
// yields the same bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s.P <= 0 || s.P > MaxSnapshotRanks {
		return nil, fmt.Errorf("%w: p=%d", ErrSnapshotRange, s.P)
	}
	if len(s.Placement) != s.P {
		return nil, fmt.Errorf("%w: %d placements for p=%d", ErrSnapshotRange, len(s.Placement), s.P)
	}
	if s.Epoch < 0 || s.Epoch > math.MaxUint32 {
		return nil, fmt.Errorf("%w: epoch=%d", ErrSnapshotRange, s.Epoch)
	}
	n := fixedLen + keyBytes*len(s.Seps) + checksumLen
	for _, keys := range s.Placement {
		n += 4 + keyBytes*len(keys)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, snapMagic...)
	buf = append(buf, SnapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, s.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.P))
	buf = append(buf, byte(s.Kind), byte(s.Dim))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Model.Tc))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Model.Ts))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Model.Tw))
	buf = binary.BigEndian.AppendUint64(buf, s.Digest)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Seps)))
	var kb [keyBytes]byte
	for _, k := range s.Seps {
		putKey(kb[:], k)
		buf = append(buf, kb[:]...)
	}
	for _, keys := range s.Placement {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
		for _, k := range keys {
			putKey(kb[:], k)
			buf = append(buf, kb[:]...)
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, par.FNV1a(par.FNVOffset64, buf))
	return buf, nil
}

// DecodeSnapshot parses one encoded snapshot. It never panics on corrupt
// input and never allocates more than the input length can justify: every
// count is validated against the bytes remaining before the slice backing
// it is allocated, and the checksum is verified before any parsing.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	if len(buf) < fixedLen+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotShort, len(buf))
	}
	if string(buf[:4]) != snapMagic {
		return nil, ErrSnapshotMagic
	}
	if buf[4] != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrSnapshotVersion, buf[4])
	}
	body, trailer := buf[:len(buf)-checksumLen], buf[len(buf)-checksumLen:]
	if got, want := par.FNV1a(par.FNVOffset64, body), binary.BigEndian.Uint64(trailer); got != want {
		return nil, fmt.Errorf("%w: got %016x want %016x", ErrSnapshotChecksum, got, want)
	}
	s := &Snapshot{
		Epoch: int(binary.BigEndian.Uint32(buf[5:9])),
		Seq:   binary.BigEndian.Uint64(buf[9:17]),
		P:     int(binary.BigEndian.Uint32(buf[17:21])),
		Kind:  sfc.Kind(buf[21]),
		Dim:   int(buf[22]),
		Model: comm.CostModel{
			Tc: math.Float64frombits(binary.BigEndian.Uint64(buf[23:31])),
			Ts: math.Float64frombits(binary.BigEndian.Uint64(buf[31:39])),
			Tw: math.Float64frombits(binary.BigEndian.Uint64(buf[39:47])),
		},
		Digest: binary.BigEndian.Uint64(buf[47:55]),
	}
	if s.P <= 0 || s.P > MaxSnapshotRanks {
		return nil, fmt.Errorf("%w: p=%d", ErrSnapshotRange, s.P)
	}
	off := fixedLen - 4
	nseps := int(binary.BigEndian.Uint32(body[off : off+4]))
	off += 4
	keys, off, err := decodeKeys(body, off, nseps)
	if err != nil {
		return nil, fmt.Errorf("splitters: %w", err)
	}
	s.Seps = keys
	// Each remaining rank section needs at least its 4-byte count, so p
	// itself is bounded by the bytes left before the placement headers are
	// allocated.
	if len(body)-off < 4*s.P {
		return nil, fmt.Errorf("%w: %d bytes left for %d rank sections", ErrSnapshotShort, len(body)-off, s.P)
	}
	s.Placement = make([][]sfc.Key, s.P)
	for r := 0; r < s.P; r++ {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("rank %d: %w", r, ErrSnapshotShort)
		}
		count := int(binary.BigEndian.Uint32(body[off : off+4]))
		off += 4
		if keys, off, err = decodeKeys(body, off, count); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		s.Placement[r] = keys
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotTrailing, len(body)-off)
	}
	return s, nil
}

// decodeKeys reads count packed keys starting at off, validating count
// against the bytes available before allocating.
func decodeKeys(body []byte, off, count int) ([]sfc.Key, int, error) {
	if count < 0 || count > (len(body)-off)/keyBytes {
		return nil, off, fmt.Errorf("%w: %d keys in %d bytes", ErrSnapshotShort, count, len(body)-off)
	}
	if count == 0 {
		return nil, off, nil
	}
	keys := make([]sfc.Key, count)
	for i := range keys {
		keys[i] = getKey(body[off : off+keyBytes])
		off += keyBytes
	}
	return keys, off, nil
}
