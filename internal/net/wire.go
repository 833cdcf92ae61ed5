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
//	wire.go      — length-prefixed, checksummed frames and their fixed-layout
//	               bodies (this file)
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
	"math"
	"slices"

	"optipart/internal/comm"
	"optipart/internal/par"
)

// Frame format. The header is big-endian.
//
//	offset  size  field
//	0       4     magic "OPTP"
//	4       1     version (2)
//	5       1     type (fHello..fShutdown)
//	6       2     op length (bytes of the collective op name)
//	8       4     src rank (int32; the sender's rank id)
//	12      8     seq (collective step index, or probe nonce)
//	20      4     payload length
//	24      ...   op name, then payload
//	...     8     FNV-1a checksum of everything above
//
// The FNV-1a checksum guards against torn or corrupted frames on a real
// socket, and the decoder treats any mismatch as a hard protocol error
// (the connection is beyond trusting — reconnect, do not resync).
const (
	frameMagic   = "OPTP"
	frameVersion = 2
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
	return appendFrame(dst, f, func(b []byte) []byte { return append(b, f.Payload...) })
}

// appendFrame encodes a frame with f's header onto dst, its payload
// written in place by body, which appends to the slice it is given: the
// header goes out with a zero payload length, and once the body is in, the
// length is patched and the checksum appended, so no payload slice is ever
// built apart from the frame. f.Payload is not read.
func appendFrame(dst []byte, f *Frame, body func([]byte) []byte) ([]byte, error) {
	if len(f.Op) > MaxFrameOp {
		return dst, fmt.Errorf("%w: op %d bytes", ErrFrameOversize, len(f.Op))
	}
	start := len(dst)
	dst = slices.Grow(dst, smallFrame) // a small frame is built in one allocation
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, f.Type)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Op)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Src))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, 0) // payload length, patched below
	dst = append(dst, f.Op...)
	dst = body(dst)
	payLen := len(dst) - start - headerLen - len(f.Op)
	if payLen > MaxFramePayload {
		return dst[:start], fmt.Errorf("%w: payload %d bytes", ErrFrameOversize, payLen)
	}
	binary.BigEndian.PutUint32(dst[start+20:], uint32(payLen))
	return binary.BigEndian.AppendUint64(dst, par.FNV1a(par.FNVOffset64, dst[start:])), nil
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

// smallFrame is the buffer a frame is encoded into, and the one ReadFrame
// reserves before it knows a frame's length: a frame that fits (every
// control frame, and the deposits and results of small collectives) is
// written, and read, with one allocation for header and body together.
const smallFrame = 256

// ReadFrame reads exactly one frame from r. The header is read first so the
// body allocation is bounded by the (capped) declared lengths; the checksum
// is verified before the frame is returned. Errors from r pass through, so
// deadline expiry surfaces as the connection's timeout error. The frame's
// Payload aliases the buffer the frame was read into.
func ReadFrame(r io.Reader) (*Frame, error) {
	buf := make([]byte, headerLen, smallFrame)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	f, opLen, payLen, err := parseFrameHeader(buf)
	if err != nil {
		return nil, err
	}
	total := headerLen + opLen + payLen + checksumLen
	buf = slices.Grow(buf, total-headerLen)[:total]
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, err
	}
	if par.FNV1a(par.FNVOffset64, buf[:total-checksumLen]) != binary.BigEndian.Uint64(buf[total-checksumLen:]) {
		return nil, ErrFrameChecksum
	}
	f.Op = string(buf[headerLen : headerLen+opLen])
	f.Payload = buf[headerLen+opLen : total-checksumLen]
	return &f, nil
}

// Frame bodies. Each body kind has one fixed layout, little-endian: an int
// is 8 bytes (int64), a float64 its IEEE-754 bits, a string or a list a
// uint32 count followed by its bytes or items. Collective values are
// comm's own wire form (comm.StepState's AppendDeposit and AppendScratch),
// the rest of their body.
//
//	hello     rank, p int · resume, inc uint64
//	welcome   p int · tc, ts, tw float64
//	deposit   elemBytes int · clock float64 · phase string · value
//	result    end float64 · scratch
//	abort     one failure: a kind byte, then the kind's fields
//	  rank       rank int · op, phase string · collective int · cause
//	             (a failure of any other kind)
//	  link       src, dst int · op string · seq uint64 · attempts, cap int
//	  mismatch   step int · calls list of {rank int · op string · elemBytes int}
//	  abandoned  waiter int · op string · departed list of int
//	  shutdown   reason string
//	  usage      op, msg string
//	  generic    msg string
//
// Decoders check every declared count against the bytes left before they
// allocate, and reject trailing bytes; any byte string decodes to a value
// or an error, never a panic (FuzzDecodeBodies).

// helloBody is a worker's join request.
type helloBody struct {
	Rank   int
	P      int
	Resume uint64 // seq of the first result the worker is still owed; noSeq if none
	Inc    uint64 // incarnation number; respawned replacements join with a higher one
}

func (h helloBody) append(dst []byte) []byte {
	dst = appendInt(appendInt(dst, h.Rank), h.P)
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, h.Resume), h.Inc)
}

func decodeHello(b []byte) (helloBody, error) {
	d := body{b: b}
	h := helloBody{Rank: d.int(), P: d.int(), Resume: d.u64(), Inc: d.u64()}
	return h, d.end()
}

// welcomeBody admits the workers and carries the world's (possibly
// calibrated) cost model.
type welcomeBody struct {
	P          int
	Tc, Ts, Tw float64
}

func (w welcomeBody) append(dst []byte) []byte {
	return appendFloat(appendFloat(appendFloat(appendInt(dst, w.P), w.Tc), w.Ts), w.Tw)
}

func decodeWelcome(b []byte) (welcomeBody, error) {
	d := body{b: b}
	w := welcomeBody{P: d.int(), Tc: d.float(), Ts: d.float(), Tw: d.float()}
	return w, d.end()
}

// depositBody is a worker's contribution to one collective step. Value is
// the deposit's wire form: append writes it after the fixed fields, so a
// sender leaves it empty and appends the value itself.
type depositBody struct {
	ElemBytes int
	Clock     float64
	Phase     string
	Value     []byte
}

func (p depositBody) append(dst []byte) []byte {
	return append(appendString(appendFloat(appendInt(dst, p.ElemBytes), p.Clock), p.Phase), p.Value...)
}

func decodeDeposit(b []byte) (depositBody, error) {
	d := body{b: b}
	p := depositBody{ElemBytes: d.int(), Clock: d.float(), Phase: d.str()}
	p.Value = d.rest()
	return p, d.err
}

// resultBody is the root's answer to one collective step: the step's end
// clock and the scratch aggregate's wire form, written like depositBody's
// value.
type resultBody struct {
	End     float64
	Scratch []byte
}

func (r resultBody) append(dst []byte) []byte {
	return append(appendFloat(dst, r.End), r.Scratch...)
}

func decodeResult(b []byte) (resultBody, error) {
	d := body{b: b}
	r := resultBody{End: d.float()}
	r.Scratch = d.rest()
	return r, d.err
}

// Failure kinds of the abort body.
const (
	failGeneric byte = iota
	failRank
	failLink
	failMismatch
	failAbandoned
	failShutdown
	failUsage
)

// appendFailure appends err's wire form: the comm error vocabulary
// flattened so that a failure detected on one process is rebuilt as the
// same structured type on every other. Anything else travels as its
// message. A rank failure's cause is itself a failure of another kind
// (nested), so a *comm.UsageError raised inside a rank survives the wire.
func appendFailure(dst []byte, err error, nested bool) []byte {
	switch e := err.(type) {
	case *comm.RankFailure:
		if nested {
			break
		}
		dst = append(dst, failRank)
		dst = appendString(appendString(appendInt(dst, e.Rank), e.Op), e.Phase)
		return appendFailure(appendInt(dst, e.Collective), e.Err, true)
	case *comm.LinkFailure:
		dst = appendString(appendInt(appendInt(append(dst, failLink), e.Src), e.Dst), e.Op)
		return appendInt(appendInt(binary.LittleEndian.AppendUint64(dst, e.Seq), e.Attempts), e.Cap)
	case *comm.MismatchError:
		dst = appendInt(append(dst, failMismatch), e.Step)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Calls)))
		for _, c := range e.Calls {
			dst = appendInt(appendString(appendInt(dst, c.Rank), c.Op), c.ElemBytes)
		}
		return dst
	case *comm.AbandonedError:
		dst = appendString(appendInt(append(dst, failAbandoned), e.Waiter), e.Op)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Departed)))
		for _, r := range e.Departed {
			dst = appendInt(dst, r)
		}
		return dst
	case *ShutdownError:
		return appendString(append(dst, failShutdown), e.Reason)
	case *comm.UsageError:
		return appendString(appendString(append(dst, failUsage), e.Op), e.Msg)
	}
	return appendString(append(dst, failGeneric), fmt.Sprint(err))
}

// decodeFailure rebuilds the failure appendFailure wrote; err reports a
// body that is not one.
func decodeFailure(b []byte) (failure, err error) {
	d := body{b: b}
	failure = d.failure(false)
	return failure, d.end()
}

func (d *body) failure(nested bool) error {
	switch kind := d.u8(); kind {
	case failGeneric:
		return errors.New(d.str())
	case failRank:
		if nested {
			d.fail(errors.New("net: rank failure nested in a rank failure"))
			return nil
		}
		e := &comm.RankFailure{Rank: d.int(), Op: d.str(), Phase: d.str(), Collective: d.int()}
		e.Err = d.failure(true)
		return e
	case failLink:
		return &comm.LinkFailure{Src: d.int(), Dst: d.int(), Op: d.str(),
			Seq: d.u64(), Attempts: d.int(), Cap: d.int()}
	case failMismatch:
		e := &comm.MismatchError{Step: d.int()}
		if n := d.count(20); n > 0 {
			e.Calls = make([]comm.SigCall, n)
			for i := range e.Calls {
				e.Calls[i] = comm.SigCall{Rank: d.int(), Op: d.str(), ElemBytes: d.int()}
			}
		}
		return e
	case failAbandoned:
		e := &comm.AbandonedError{Waiter: d.int(), Op: d.str()}
		if n := d.count(8); n > 0 {
			e.Departed = make([]int, n)
			for i := range e.Departed {
				e.Departed[i] = d.int()
			}
		}
		return e
	case failShutdown:
		return &ShutdownError{Reason: d.str()}
	case failUsage:
		return &comm.UsageError{Op: d.str(), Msg: d.str()}
	default:
		d.fail(fmt.Errorf("net: unknown failure kind %d", kind))
		return nil
	}
}

// errBodyShort is a body whose fields or declared counts overrun it.
var errBodyShort = errors.New("net: frame body truncated")

// body reads a frame body front to back. The first read that fails
// latches its error; every later read returns a zero value.
type body struct {
	b   []byte
	err error
}

func (d *body) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// take consumes the next n bytes, or fails the body.
func (d *body) take(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.fail(errBodyShort)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *body) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *body) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *body) int() int { return int(int64(d.u64())) }

func (d *body) float() float64 { return math.Float64frombits(d.u64()) }

// count reads a list or string length and checks that that many items,
// each taking at least each bytes, fit in the bytes left, before anyone
// allocates.
func (d *body) count(each int) int {
	p := d.take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n*each > len(d.b) {
		d.fail(fmt.Errorf("%w: %d items of %d bytes in %d", errBodyShort, n, each, len(d.b)))
		return 0
	}
	return n
}

func (d *body) str() string { return string(d.take(d.count(1))) }

// rest consumes and returns whatever is left.
func (d *body) rest() []byte {
	p := d.b
	d.b = nil
	return p
}

// end is the body's error, with trailing bytes an error too.
func (d *body) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("net: %d trailing bytes after a frame body", len(d.b))
	}
	return d.err
}

func appendInt(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}
