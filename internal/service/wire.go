package service

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"optipart/internal/machine"
	"optipart/internal/partition"
	"optipart/internal/sfc"
)

// WireRequest is the gob form of a Request: machines travel by name (both
// ends share the machine table) and enums travel as ints. It is the
// protocol `optipartd -serve` speaks: a client writes WireRequests and
// reads WireResponses over one connection, strictly alternating. gob skips
// fields the receiver lacks, so a client that still sends a retired field
// (its tenant name, a warm-start prior) is served the cold answer.
type WireRequest struct {
	Keys         []sfc.Key
	CurveKind    int
	Dim          int
	Ranks        int
	Mode         int
	Tol          float64
	Alpha        float64
	PayloadBytes int
	MachineName  string
}

// WireResponse is the gob form of a Response plus the hit flag and a
// flattened error (gob cannot carry error values).
type WireResponse struct {
	Err string
	Hit bool

	Seps        []sfc.Key
	Counts      []int
	NumKeys     int
	Quality     partition.Quality
	Predicted   float64
	Rounds      int
	AchievedTol float64
}

// ToRequest resolves the wire form into a service Request.
func (w *WireRequest) ToRequest() (Request, error) {
	m, err := machine.ByName(w.MachineName)
	if err != nil {
		return Request{}, fmt.Errorf("service: %w", err)
	}
	return Request{
		Keys:         w.Keys,
		CurveKind:    sfc.Kind(w.CurveKind),
		Dim:          w.Dim,
		Ranks:        w.Ranks,
		Mode:         partition.Mode(w.Mode),
		Tol:          w.Tol,
		Alpha:        w.Alpha,
		PayloadBytes: w.PayloadBytes,
		Machine:      m,
	}, nil
}

// FromRequest renders a Request into its wire form.
func FromRequest(req Request) WireRequest {
	return WireRequest{
		Keys:         req.Keys,
		CurveKind:    int(req.CurveKind),
		Dim:          req.Dim,
		Ranks:        req.Ranks,
		Mode:         int(req.Mode),
		Tol:          req.Tol,
		Alpha:        req.Alpha,
		PayloadBytes: req.PayloadBytes,
		MachineName:  req.Machine.Name,
	}
}

// ServeConn runs the request/response loop for one client connection until
// the client hangs up (clean EOF) or the stream errors. It is synchronous —
// the caller owns the connection's goroutine — so the service package
// itself spawns nothing and stays inside the repo's determinism rules.
func ServeConn(s *Service, conn io.ReadWriter) error {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var wr WireRequest
		if err := dec.Decode(&wr); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		var out WireResponse
		req, err := wr.ToRequest()
		if err == nil {
			var resp *Response
			var hit bool
			resp, hit, err = s.Do(req)
			if err == nil {
				out = WireResponse{
					Hit:         hit,
					Seps:        resp.Splitters.Seps,
					Counts:      resp.Counts,
					NumKeys:     resp.NumKeys,
					Quality:     resp.Quality,
					Predicted:   resp.Predicted,
					Rounds:      resp.Rounds,
					AchievedTol: resp.AchievedTol,
				}
			}
		}
		if err != nil {
			out.Err = err.Error()
		}
		if err := enc.Encode(&out); err != nil {
			return err
		}
	}
}
