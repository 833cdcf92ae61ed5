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
	"slices"

	"optipart/internal/comm"
)

// Frame format. The header is big-endian.
//
//	offset  size  field
//	0       4     magic "OPTP"
//	4       1     version (3; 2 was sealed with FNV-1a)
//	5       1     type (fHello..fShutdown)
//	6       2     op length (bytes of the collective op name)
//	8       4     src rank (int32; the sender's rank id)
//	12      8     seq (collective step index, or probe nonce)
//	20      4     payload length
//	24      ...   op name, then payload
//	...     4     CRC-32C checksum of everything above
//
// The magic and version are checked by comm.CheckHeader, and the checksum
// is the byte layer's seal (comm.Seal, comm.Unseal). It guards against torn
// or corrupted frames on a real socket, and ReadFrame treats any mismatch
// as a hard protocol error (the connection is beyond trusting — reconnect,
// do not resync).
const (
	frameMagic   = "OPTP"
	frameVersion = 3
	headerLen    = 24
	checksumLen  = comm.SealLen

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

// Frame errors of net's own; the rest are the byte layer's (comm.ErrShort,
// ErrMagic, ErrVersion, ErrChecksum).
var (
	ErrFrameType     = errors.New("net: unknown frame type")
	ErrFrameOversize = errors.New("net: frame length exceeds cap")
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
	return comm.Seal(dst, start), nil
}

// smallFrame is the buffer a frame is encoded into, and the one ReadFrame
// reserves before it knows a frame's length: a frame that fits (every
// control frame, and the deposits and results of small collectives) is
// written, and read, with one allocation for header and body together.
const smallFrame = 256

// readChunk is the most ReadFrame reserves for a body before any of it has
// arrived; a body that fits is read with one allocation.
const readChunk = 1 << 20

// ReadFrame reads exactly one frame from r, the one frame decoder. The
// header is read and checked first (magic, version, type range, and the
// two declared lengths against their caps), and the body buffer grows
// only as its bytes arrive; the checksum is verified before the frame is
// returned. A stream that ends inside a frame is io.ErrUnexpectedEOF;
// other errors from r pass through, so deadline expiry surfaces as the
// connection's timeout error. The frame's Payload aliases the buffer the
// frame was read into.
func ReadFrame(r io.Reader) (*Frame, error) {
	buf := make([]byte, headerLen, smallFrame)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if err := comm.CheckHeader(buf, frameMagic, frameVersion); err != nil {
		return nil, err
	}
	f := Frame{Type: buf[5], Src: int32(binary.BigEndian.Uint32(buf[8:12])),
		Seq: binary.BigEndian.Uint64(buf[12:20])}
	if f.Type < fHello || f.Type > fShutdown {
		return nil, fmt.Errorf("%w: %d", ErrFrameType, f.Type)
	}
	opLen := int(binary.BigEndian.Uint16(buf[6:8]))
	payLen := int(binary.BigEndian.Uint32(buf[20:24]))
	if opLen > MaxFrameOp || payLen > MaxFramePayload {
		return nil, fmt.Errorf("%w: op %d, payload %d bytes", ErrFrameOversize, opLen, payLen)
	}
	total := headerLen + opLen + payLen + checksumLen
	for len(buf) < total {
		// A declared length is a claim until its bytes arrive: the buffer
		// grows by at most what it already holds (readChunk at first), so
		// a stalled peer cannot make it reserve MaxFramePayload.
		n := min(total-len(buf), max(readChunk, len(buf)))
		if cap(buf) < len(buf)+n {
			buf = append(make([]byte, 0, len(buf)+n), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
		buf = buf[:len(buf)+n]
	}
	if _, err := comm.Unseal(buf); err != nil {
		return nil, err
	}
	f.Op = string(buf[headerLen : headerLen+opLen])
	f.Payload = buf[headerLen+opLen : total-checksumLen]
	return &f, nil
}

// Frame bodies. Each body kind has one fixed layout in the byte layer's
// fields (comm's bytes.go): an int is 8 bytes, a float64 its IEEE-754
// bits, a string or a list a uint32 count followed by its bytes or items,
// all little-endian. Collective values are
// comm's own wire form (comm.StepState's AppendDeposit and AppendResult),
// the rest of their body.
//
//	hello     rank, p int · resume, inc uint64
//	welcome   p int · tc, ts, tw float64
//	deposit   elemBytes int · clock float64 · phase string · value
//	result    end float64 · value (the shared result, or for Alltoallv the
//	          receiving rank's column, its own run empty)
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
// Decoders read with comm.Reader, which checks every declared count against
// the bytes left before they allocate and rejects trailing bytes; any byte
// string decodes to a value or an error, never a panic (FuzzDecodeBodies).

// helloBody is a worker's join request.
type helloBody struct {
	Rank   int
	P      int
	Resume uint64 // seq of the first result the worker is still owed; noSeq if none
	Inc    uint64 // incarnation number; respawned replacements join with a higher one
}

func (h helloBody) append(dst []byte) []byte {
	dst = comm.AppendInt(comm.AppendInt(dst, h.Rank), h.P)
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, h.Resume), h.Inc)
}

func decodeHello(b []byte) (helloBody, error) {
	d := comm.NewReader(b)
	h := helloBody{Rank: d.Int(), P: d.Int(), Resume: d.U64(), Inc: d.U64()}
	return h, d.End()
}

// welcomeBody admits the workers and carries the world's (possibly
// calibrated) cost model.
type welcomeBody struct {
	P          int
	Tc, Ts, Tw float64
}

func (w welcomeBody) append(dst []byte) []byte {
	return comm.AppendFloat(comm.AppendFloat(comm.AppendFloat(comm.AppendInt(dst, w.P), w.Tc), w.Ts), w.Tw)
}

func decodeWelcome(b []byte) (welcomeBody, error) {
	d := comm.NewReader(b)
	w := welcomeBody{P: d.Int(), Tc: d.Float(), Ts: d.Float(), Tw: d.Float()}
	return w, d.End()
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
	return append(comm.AppendString(comm.AppendFloat(comm.AppendInt(dst, p.ElemBytes), p.Clock), p.Phase), p.Value...)
}

func decodeDeposit(b []byte) (depositBody, error) {
	d := comm.NewReader(b)
	p := depositBody{ElemBytes: d.Int(), Clock: d.Float(), Phase: d.Str()}
	p.Value = d.Rest()
	return p, d.End()
}

// resultBody is the root's answer to one collective step: the step's end
// clock and the result's wire form, written like depositBody's value.
type resultBody struct {
	End   float64
	Value []byte
}

func (r resultBody) append(dst []byte) []byte {
	return append(comm.AppendFloat(dst, r.End), r.Value...)
}

func decodeResult(b []byte) (resultBody, error) {
	d := comm.NewReader(b)
	r := resultBody{End: d.Float()}
	r.Value = d.Rest()
	return r, d.End()
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
		dst = comm.AppendString(comm.AppendString(comm.AppendInt(dst, e.Rank), e.Op), e.Phase)
		return appendFailure(comm.AppendInt(dst, e.Collective), e.Err, true)
	case *comm.LinkFailure:
		dst = comm.AppendString(comm.AppendInt(comm.AppendInt(append(dst, failLink), e.Src), e.Dst), e.Op)
		return comm.AppendInt(comm.AppendInt(binary.LittleEndian.AppendUint64(dst, e.Seq), e.Attempts), e.Cap)
	case *comm.MismatchError:
		dst = comm.AppendInt(append(dst, failMismatch), e.Step)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Calls)))
		for _, c := range e.Calls {
			dst = comm.AppendInt(comm.AppendString(comm.AppendInt(dst, c.Rank), c.Op), c.ElemBytes)
		}
		return dst
	case *comm.AbandonedError:
		dst = comm.AppendString(comm.AppendInt(append(dst, failAbandoned), e.Waiter), e.Op)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Departed)))
		for _, r := range e.Departed {
			dst = comm.AppendInt(dst, r)
		}
		return dst
	case *ShutdownError:
		return comm.AppendString(append(dst, failShutdown), e.Reason)
	case *comm.UsageError:
		return comm.AppendString(comm.AppendString(append(dst, failUsage), e.Op), e.Msg)
	}
	return comm.AppendString(append(dst, failGeneric), fmt.Sprint(err))
}

// decodeFailure rebuilds the failure appendFailure wrote; err reports a
// body that is not one.
func decodeFailure(b []byte) (failure, err error) {
	d := comm.NewReader(b)
	failure = readFailure(&d, false)
	return failure, d.End()
}

// readFailure reads one failure of appendFailure's wire form off d.
func readFailure(d *comm.Reader, nested bool) error {
	switch kind := d.U8(); kind {
	case failGeneric:
		return errors.New(d.Str())
	case failRank:
		if nested {
			d.Fail(errors.New("net: rank failure nested in a rank failure"))
			return nil
		}
		e := &comm.RankFailure{Rank: d.Int(), Op: d.Str(), Phase: d.Str(), Collective: d.Int()}
		e.Err = readFailure(d, true)
		return e
	case failLink:
		return &comm.LinkFailure{Src: d.Int(), Dst: d.Int(), Op: d.Str(),
			Seq: d.U64(), Attempts: d.Int(), Cap: d.Int()}
	case failMismatch:
		e := &comm.MismatchError{Step: d.Int()}
		if n := d.Count(20); n > 0 {
			e.Calls = make([]comm.SigCall, n)
			for i := range e.Calls {
				e.Calls[i] = comm.SigCall{Rank: d.Int(), Op: d.Str(), ElemBytes: d.Int()}
			}
		}
		return e
	case failAbandoned:
		e := &comm.AbandonedError{Waiter: d.Int(), Op: d.Str()}
		if n := d.Count(8); n > 0 {
			e.Departed = make([]int, n)
			for i := range e.Departed {
				e.Departed[i] = d.Int()
			}
		}
		return e
	case failShutdown:
		return &ShutdownError{Reason: d.Str()}
	case failUsage:
		return &comm.UsageError{Op: d.Str(), Msg: d.Str()}
	default:
		d.Fail(fmt.Errorf("net: unknown failure kind %d", kind))
		return nil
	}
}
