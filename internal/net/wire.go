// Package net is the wire transport: a comm.Transport whose ranks are real
// OS processes connected by TCP or unix-domain sockets. It is the piece
// that turns the repo's simulated SPMD runtime into a deployable system —
// the same rank programs, the same collectives, the same structured
// failures, but the bytes genuinely leave the process and a dead rank is a
// dead process, not a panicking goroutine.
//
// Topology is a star rooted at rank 0, mirroring where the in-process
// backend already centralizes work: every collective's compute closure runs
// once on rank 0, so rank 0 is the natural aggregation point. Workers frame
// their deposits to the root; the root runs the collective and broadcasts
// the result and the authoritative BSP end clock.
//
// The files of this package:
//
//	wire.go      — length-prefixed, checksummed frame format (this file)
//	conn.go      — options, the endpoint grammar, deadline-wrapped connections
//	heartbeat.go — peer liveness monitor with an injectable clock
//	backend.go   — Root and Worker comm.Transport implementations
//	calibrate.go — ts/tw/tc measurement over the live links
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"optipart/internal/par"
)

// Frame format, evolving the PR 2 simulated-transport packet into a real
// wire encoding. Everything is big-endian.
//
//	offset  size  field
//	0       4     magic "OPTP"
//	4       1     version (1)
//	5       1     type (fHello..fShutdown)
//	6       2     op length (bytes of the collective op name)
//	8       4     src rank (int32; the sender's rank id)
//	12      8     seq (collective step index, or probe nonce)
//	20      4     payload length
//	24      ...   op name, then payload
//	...     8     FNV-1a checksum of everything above
//
// The checksum is the same FNV-1a the simulated transport stamps on its
// packets; here it guards against torn or corrupted frames on a real
// socket, and the decoder treats any mismatch as a hard protocol error
// (the connection is beyond trusting — reconnect, do not resync).
const (
	frameMagic   = "OPTP"
	frameVersion = 1
	headerLen    = 24
	checksumLen  = 8

	// MaxFrameOp and MaxFramePayload bound what the decoder will allocate,
	// so a corrupted or hostile length field cannot OOM the process.
	MaxFrameOp      = 1 << 8
	MaxFramePayload = 1 << 26
)

// Frame types.
const (
	fHello    = byte(iota + 1) // worker→root: join the world (payload: helloBody)
	fWelcome                   // root→worker: admission + calibrated model (welcomeBody)
	fDeposit                   // worker→root: collective deposit (depositBody)
	fResult                    // root→worker: collective result + end clock (resultBody)
	fAbort                     // either: world failure, reconstructable error (wireFailure)
	fDone                      // worker→root: rank program returned
	fPing                      // root→worker: liveness probe
	fPong                      // worker→root: liveness reply
	fCalReq                    // root→worker: calibration echo request (sized payload)
	fCalEcho                   // worker→root: calibration echo reply (same payload)
	fShutdown                  // root→worker: orderly world shutdown (payload: reason text)
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    byte
	Src     int32
	Seq     uint64
	Op      string
	Payload []byte
}

// Frame decode errors.
var (
	ErrFrameShort    = errors.New("net: frame truncated")
	ErrFrameMagic    = errors.New("net: bad frame magic")
	ErrFrameVersion  = errors.New("net: unsupported frame version")
	ErrFrameType     = errors.New("net: unknown frame type")
	ErrFrameOversize = errors.New("net: frame length exceeds cap")
	ErrFrameChecksum = errors.New("net: frame checksum mismatch")
	ErrFrameTrailing = errors.New("net: trailing bytes after frame")
)

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Op) > MaxFrameOp {
		return dst, fmt.Errorf("%w: op %d bytes", ErrFrameOversize, len(f.Op))
	}
	if len(f.Payload) > MaxFramePayload {
		return dst, fmt.Errorf("%w: payload %d bytes", ErrFrameOversize, len(f.Payload))
	}
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, f.Type)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Op)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Src))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Op...)
	dst = append(dst, f.Payload...)
	dst = binary.BigEndian.AppendUint64(dst, par.FNV1a(par.FNVOffset64, dst[start:]))
	return dst, nil
}

// DecodeFrame decodes exactly one frame from buf, rejecting truncated,
// oversized, bit-flipped, and trailing-garbage inputs. It never panics and
// never allocates more than the declared (capped) lengths; the returned
// frame's Op and Payload are copies, safe to retain after buf is reused.
func DecodeFrame(buf []byte) (*Frame, error) {
	f, n, err := decodeFramePrefix(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("%w: %d of %d bytes", ErrFrameTrailing, n, len(buf))
	}
	return f, nil
}

// parseFrameHeader is the one place a frame header is checked: magic,
// version, type range, and the two declared lengths against their caps.
// hdr must hold at least headerLen bytes. It returns the frame with its
// fixed fields filled and the lengths of the op and payload that follow.
func parseFrameHeader(hdr []byte) (f Frame, opLen, payLen int, err error) {
	if string(hdr[0:4]) != frameMagic {
		return f, 0, 0, ErrFrameMagic
	}
	if hdr[4] != frameVersion {
		return f, 0, 0, fmt.Errorf("%w: %d", ErrFrameVersion, hdr[4])
	}
	f.Type = hdr[5]
	if f.Type < fHello || f.Type > fShutdown {
		return f, 0, 0, fmt.Errorf("%w: %d", ErrFrameType, f.Type)
	}
	opLen = int(binary.BigEndian.Uint16(hdr[6:8]))
	f.Src = int32(binary.BigEndian.Uint32(hdr[8:12]))
	f.Seq = binary.BigEndian.Uint64(hdr[12:20])
	payLen = int(binary.BigEndian.Uint32(hdr[20:24]))
	if opLen > MaxFrameOp {
		return f, 0, 0, fmt.Errorf("%w: op %d bytes", ErrFrameOversize, opLen)
	}
	if payLen > MaxFramePayload {
		return f, 0, 0, fmt.Errorf("%w: payload %d bytes", ErrFrameOversize, payLen)
	}
	return f, opLen, payLen, nil
}

// decodeFramePrefix decodes one frame from the front of buf, returning the
// frame and the number of bytes it occupied.
func decodeFramePrefix(buf []byte) (*Frame, int, error) {
	if len(buf) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d header bytes", ErrFrameShort, len(buf))
	}
	f, opLen, payLen, err := parseFrameHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	total := headerLen + opLen + payLen + checksumLen
	if len(buf) < total {
		return nil, 0, fmt.Errorf("%w: %d of %d bytes", ErrFrameShort, len(buf), total)
	}
	body := buf[:total-checksumLen]
	want := binary.BigEndian.Uint64(buf[total-checksumLen : total])
	if par.FNV1a(par.FNVOffset64, body) != want {
		return nil, 0, ErrFrameChecksum
	}
	f.Op = string(buf[headerLen : headerLen+opLen])
	f.Payload = append([]byte(nil), buf[headerLen+opLen:headerLen+opLen+payLen]...)
	return &f, total, nil
}

// ReadFrame reads exactly one frame from r. The header is read first so the
// body allocation is bounded by the (capped) declared lengths; the checksum
// is verified before the frame is returned. Errors from r pass through, so
// deadline expiry surfaces as the connection's timeout error.
func ReadFrame(r io.Reader) (*Frame, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	f, opLen, payLen, err := parseFrameHeader(hdr)
	if err != nil {
		return nil, err
	}
	rest := make([]byte, opLen+payLen+checksumLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	sum := par.FNV1a(par.FNV1a(par.FNVOffset64, hdr), rest[:opLen+payLen])
	want := binary.BigEndian.Uint64(rest[opLen+payLen:])
	if sum != want {
		return nil, ErrFrameChecksum
	}
	f.Op = string(rest[:opLen])
	f.Payload = rest[opLen : opLen+payLen]
	return &f, nil
}
