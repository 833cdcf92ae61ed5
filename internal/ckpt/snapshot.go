// Package ckpt provides versioned, CRC-sealed, deterministic snapshots
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

	"optipart/internal/comm"
	"optipart/internal/par"
	"optipart/internal/sfc"
)

// SnapshotVersion is the current encoding version: 3 is sealed with
// CRC-32C, 2 was sealed with FNV-1a. Decoders reject other versions
// (comm.ErrVersion) rather than guessing at layouts.
const SnapshotVersion = 3

const (
	snapMagic = "OCKP"
	keyBytes  = 13 // sfc.Key's wire form, and DigestFold's packing of it

	// MaxSnapshotRanks bounds the rank count a snapshot may hold; real
	// worlds are far smaller.
	MaxSnapshotRanks = 1 << 16
)

// ErrSnapshotRange is a snapshot field outside its range. A snapshot that
// does not decode fails with the byte layer's errors instead (comm.ErrShort,
// ErrMagic, ErrVersion, ErrChecksum, ErrTrailing); match with errors.Is.
var ErrSnapshotRange = errors.New("ckpt: snapshot field out of range")

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
			// A hash input, not a wire form: the packing is fixed so that
			// every digest stays fixed.
			binary.BigEndian.PutUint32(buf[0:4], k.X)
			binary.BigEndian.PutUint32(buf[4:8], k.Y)
			binary.BigEndian.PutUint32(buf[8:12], k.Z)
			buf[12] = k.Level
			d = par.FNV1a(d, buf[:])
		}
	}
	return d
}

// EncodeSnapshot renders s in the versioned wire form, in the byte layer's
// fields (comm's bytes.go): the magic and version; epoch, seq, curve kind
// and dim, the model's tc, ts and tw, and the digest; the splitters, then
// the list of rank sections, each a list of keys in sfc.Key's wire form;
// and the seal. Encoding is deterministic: the same Snapshot always yields
// the same bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s.P <= 0 || s.P > MaxSnapshotRanks {
		return nil, fmt.Errorf("%w: p=%d", ErrSnapshotRange, s.P)
	}
	if len(s.Placement) != s.P {
		return nil, fmt.Errorf("%w: %d placements for p=%d", ErrSnapshotRange, len(s.Placement), s.P)
	}
	if s.Epoch < 0 {
		return nil, fmt.Errorf("%w: epoch=%d", ErrSnapshotRange, s.Epoch)
	}
	buf := append([]byte(snapMagic), SnapshotVersion)
	buf = binary.LittleEndian.AppendUint64(comm.AppendInt(buf, s.Epoch), s.Seq)
	buf = append(buf, byte(s.Kind), byte(s.Dim))
	buf = comm.AppendFloat(comm.AppendFloat(comm.AppendFloat(buf, s.Model.Tc), s.Model.Ts), s.Model.Tw)
	buf = appendKeys(binary.LittleEndian.AppendUint64(buf, s.Digest), s.Seps)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Placement)))
	for _, keys := range s.Placement {
		buf = appendKeys(buf, keys)
	}
	return comm.Seal(buf, 0), nil
}

func appendKeys(dst []byte, keys []sfc.Key) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = k.AppendElem(dst)
	}
	return dst
}

// DecodeSnapshot parses one encoded snapshot. It never panics on corrupt
// input and never allocates more than the input length can justify: it
// reads with comm.Reader, which checks every count against the bytes left
// before the slice backing it is allocated, and it believes no count
// before the seal is verified.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	body, sealErr := comm.Unseal(buf)
	if err := comm.CheckHeader(body, snapMagic, SnapshotVersion); err != nil {
		return nil, err
	}
	d := comm.NewReader(body[len(snapMagic)+1:])
	s := &Snapshot{Epoch: d.Int(), Seq: d.U64(), Kind: sfc.Kind(d.U8()), Dim: int(d.U8()),
		Model:  comm.CostModel{Tc: d.Float(), Ts: d.Float(), Tw: d.Float()},
		Digest: d.U64()}
	// The fixed fields are read ahead of the seal, so a buffer too short to
	// hold them reads as truncated rather than as corrupt.
	d.Fail(sealErr)
	s.Seps = readKeys(&d)
	s.Placement = make([][]sfc.Key, d.Count(4))
	for r := range s.Placement {
		s.Placement[r] = readKeys(&d)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	if s.P = len(s.Placement); s.P == 0 || s.P > MaxSnapshotRanks || s.Epoch < 0 {
		return nil, fmt.Errorf("%w: p=%d, epoch=%d", ErrSnapshotRange, s.P, s.Epoch)
	}
	return s, nil
}

// readKeys reads a list of keys in sfc.Key's wire form; an empty list is nil.
func readKeys(d *comm.Reader) []sfc.Key {
	n := d.Count(keyBytes)
	if n == 0 {
		return nil
	}
	keys := make([]sfc.Key, n)
	src := d.Take(n * keyBytes)
	for i := range keys {
		src = keys[i].ReadElem(src)
	}
	return keys
}
