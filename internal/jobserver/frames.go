// Encode-once snapshot multicast.
//
// A job (and, in streams.go, a stream) keeps its history once, as a log
// of encoded frames: each frame is encoded to the binary wire format
// exactly once, at creation, by the producer goroutine, and every
// subscriber shares the same buffer. The payload is the frame — nothing
// typed is kept beside it. The JSON line is decoded from the payload at
// most once, the first time a JSONL subscriber needs it, and then shared
// the same way.
//
// Frames are stamped with their status at creation time (running
// mid-job, done+final for the terminal snapshot). A job that fails or
// is canceled mid-run re-stamps only its last frame with the terminal
// status (decode, set, encode); all earlier frames are immutable
// forever. Because a frame's bytes never change after publication,
// subscribers at any cursor — live, resumed, or joining after a daemon
// restart — read byte-identical streams.
//
// Slow subscribers cannot stall anything structurally: the frame log
// is a pull model (FramesFrom blocks the subscriber's own HTTP handler
// goroutine, never the engine), and a subscriber whose cursor falls
// more than maxLag frames behind a live job is skipped forward to the
// latest frame. The Seq gap in its stream is the drop signal.
package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/wire"
)

// encFrame is one published frame: the canonical binary payload
// (encoded exactly once, at creation) plus the JSON line decoded from
// it on first use.
type encFrame struct {
	// bin is the canonical wire payload (without the length prefix).
	bin []byte
	// jsonLine caches the JSONL form: the decoded payload marshalled,
	// plus '\n'. Installed at most once via CAS; concurrent first
	// readers may both render, exactly one result wins and is shared.
	jsonLine atomic.Pointer[[]byte]
}

// JSONLine returns the frame's cached JSONL rendering. Floats survive
// the payload bit for bit, so the line is the one the typed frame
// would have marshalled to.
func (f *encFrame) JSONLine() ([]byte, error) {
	if p := f.jsonLine.Load(); p != nil {
		return *p, nil
	}
	kind, err := wire.Kind(f.bin)
	if err != nil {
		return nil, err
	}
	var frame any
	if kind == wire.KindWindow {
		frame, err = wire.DecodeWindowFrame(f.bin)
	} else {
		frame, err = wire.DecodeJobFrame(f.bin)
	}
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(frame)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	f.jsonLine.CompareAndSwap(nil, &b)
	return *f.jsonLine.Load(), nil
}

// WriteTo sends the frame to one subscriber in the negotiated format:
// length-prefixed binary, or a JSONL line. Pure fan-out — no encoding
// happens here beyond the one-time lazy JSON rendering.
func (f *encFrame) WriteTo(w io.Writer, binary bool) error {
	if binary {
		return wire.WriteFrame(w, f.bin)
	}
	line, err := f.JSONLine()
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// newJobFrame builds and encodes one job snapshot frame.
func newJobFrame(seq int, t float64, status JobStatus, final bool, ests []mapreduce.KeyEstimate) *encFrame {
	return &encFrame{bin: wire.AppendJobFrame(nil, &wire.JobFrame{
		Seq: seq, T: t, Status: string(status), Final: final, Estimates: WireEstimates(ests),
	})}
}

// synthJobFrame is the per-connection terminal marker for jobs that
// reached a terminal state with no frame to carry it (failed before
// any snapshot, or a fully caught-up resume): Seq is the cursor, no
// estimates. Its JSON line is rendered from the typed marker and reads
// "estimates":null, where a stored frame that carries none prints [].
func synthJobFrame(seq int, status JobStatus) *encFrame {
	m := &wire.JobFrame{Seq: seq, Status: string(status)}
	f := &encFrame{bin: wire.AppendJobFrame(nil, m)}
	if line, err := json.Marshal(m); err == nil {
		line = append(line, '\n')
		f.jsonLine.Store(&line)
	}
	return f
}

// restampJobFrame re-encodes a frame under a terminal status (the one
// mutation the log permits, and only ever on the last frame).
func restampJobFrame(old *encFrame, status JobStatus) *encFrame {
	f, err := wire.DecodeJobFrame(old.bin)
	if err != nil {
		return old // bin is this process's own encoding
	}
	f.Status, f.Final = string(status), false
	return &encFrame{bin: wire.AppendJobFrame(nil, f)}
}

// withLast returns a copy of frames that ends in last instead of its
// own last frame — a copy, because a subscriber may still be reading,
// outside the lock, the frames it was handed.
func withLast(frames []*encFrame, last *encFrame) []*encFrame {
	n := len(frames) - 1
	return append(frames[:n:n], last)
}

// FrameFromWire is the identity; kept for bench/, goes at ROADMAP item
// 5's unfreeze.
func FrameFromWire(f *wire.JobFrame) wire.JobFrame { return *f }

// newWindowFrameEnc encodes one stream window frame.
func newWindowFrameEnc(ww wire.WindowFrame) *encFrame {
	return &encFrame{bin: wire.AppendWindowFrame(nil, &ww)}
}

// restampWindowFrame re-encodes a window frame under the stream's
// terminal status; final marks a stream that drained normally.
func restampWindowFrame(old *encFrame, status StreamStatus) *encFrame {
	ww, err := wire.DecodeWindowFrame(old.bin)
	if err != nil {
		return old // bin is this process's own encoding
	}
	ww.Status, ww.Final = string(status), status == StreamDone
	return newWindowFrameEnc(*ww)
}

// synthWindowFrame mirrors synthJobFrame for the stream plane.
func synthWindowFrame(seq int, status StreamStatus) *encFrame {
	return newWindowFrameEnc(wire.WindowFrame{Seq: seq, Status: string(status)})
}

// DefaultMaxLag is the slow-subscriber drop threshold: a live
// subscriber more than this many frames behind is skipped forward to
// the latest frame. Generous on purpose — jobs emit tens of frames, so
// only a genuinely wedged reader ever trips it; a client sets its own
// per request (?lag=N, or ?lag=off to never drop).
const DefaultMaxLag = 256

// freshFrames is the subscriber cursor over a frame log: the frames
// past have and the cursor after them, ready false while the subscriber
// has to wait for more. A cursor outside the log is clamped (a resume
// after a restart may point past a recovered job's single frame).
// maxLag > 0 is the slow-subscriber policy: while the log is live, a
// cursor more than maxLag frames behind jumps to the latest frame; a
// terminal log replays in full — history is bounded.
func freshFrames(frames []*encFrame, have, maxLag int, terminal bool) (fresh []*encFrame, next int, ready bool) {
	n := len(frames)
	have = min(max(have, 0), n)
	if !terminal && maxLag > 0 && n-have > maxLag {
		have = n - 1
	}
	return frames[have:n:n], n, n > have || terminal
}

// FramesFrom blocks until job id has frames beyond `have` or is
// terminal, then returns the fresh shared frames (see freshFrames), the
// status, and the updated cursor. Each frame carries its own Seq, so
// drops appear to the client as Seq gaps. Callers loop until Terminal;
// safe from any goroutine while the engine goroutine drives the job.
func (s *Service) FramesFrom(id string, have, maxLag int) ([]*encFrame, JobStatus, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		st, ok := s.states[id]
		if !ok {
			return nil, "", have, fmt.Errorf("jobserver: no job %q", id)
		}
		fresh, next, ready := freshFrames(st.frames, have, maxLag, st.Status.Terminal())
		if ready {
			return fresh, st.Status, next, nil
		}
		if s.closed {
			return nil, st.Status, next, errors.New("jobserver: service shut down")
		}
		s.cond.Wait()
	}
}
