// Continuous queries: the jobserver face of the streaming plane.
//
// A StreamSpec is the wire-level description of one continuous
// windowed query — a streaming sibling of JobSpec — naming a scenario
// from the stream catalog plus window/SLO/rate settings. StreamSet
// runs each opened stream's Pipeline on its own goroutine — the stream
// plane's only parallelism is across streams — and accumulates the
// emitted WindowResults as a Seq-numbered frame log that watchers
// resume from, mirroring Service.FramesFrom.
//
// Streams are deliberately not journaled: a window series is a pure
// function of (spec, seed), so there is no state worth checkpointing —
// a client of a restarted daemon reopens the spec and replays the
// identical series from window 0, which is cheaper and simpler than
// recovering partial reservoir state. Streams also never touch the
// shared engine or its virtual timeline; the stream plane has its own
// event-time clock, so continuous queries and batch jobs cannot
// perturb each other's schedules.
package jobserver

import (
	"errors"
	"fmt"
	"sync"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// errStreamCanceled aborts a stream's pipeline from its emit hook.
var errStreamCanceled = errors.New("jobserver: stream canceled")

// StreamSpec is the serializable description of one continuous query.
// Zero values select the documented defaults; Build validates the rest.
type StreamSpec struct {
	// Name labels the stream (default "<app>-<seed>").
	Name string `json:"name,omitempty"`
	// App names a stream scenario of apps.Catalog.
	App string `json:"app"`
	// Blocks/LinesPerBlock size the generated source log (defaults:
	// the app's workload defaults).
	Blocks        int `json:"blocks,omitempty"`
	LinesPerBlock int `json:"linesPerBlock,omitempty"`
	// Seed drives source pacing, every reservoir, and shedding
	// (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Window/Slide are the event-time window spec in virtual seconds
	// (default 10s tumbling).
	Window float64 `json:"window,omitempty"`
	Slide  float64 `json:"slide,omitempty"`
	// TargetRelErr/MaxLatency form the SLO; both zero runs a fixed
	// plan with no controller.
	TargetRelErr float64 `json:"targetRelErr,omitempty"`
	MaxLatency   float64 `json:"maxLatency,omitempty"`
	// Capacity is the starting per-stratum reservoir size (default 64).
	Capacity int `json:"capacity,omitempty"`

	// Rate/Swing/Period shape the diurnal arrival curve (defaults
	// 400 rec/s, 0.5 swing, 120 s period; Swing 0 is a constant rate).
	Rate   float64 `json:"rate,omitempty"`
	Swing  float64 `json:"swing,omitempty"`
	Period float64 `json:"period,omitempty"`

	// MaxWindows stops the stream after N windows (0 = drain the
	// generated source).
	MaxWindows int `json:"maxWindows,omitempty"`
}

// Build assembles the runnable pipeline this spec describes.
func (s StreamSpec) Build() (*stream.Pipeline, error) {
	if err := checkInputSize(s.Blocks, s.LinesPerBlock); err != nil {
		return nil, err
	}
	rate := s.Rate
	if rate <= 0 {
		rate = 400
	}
	swing := s.Swing
	if swing < 0 || swing >= 1 {
		return nil, fmt.Errorf("jobserver: stream swing %g outside [0,1)", s.Swing)
	}
	period := s.Period
	if period <= 0 {
		period = 120
	}
	var rf workload.RateFunc
	if swing > 0 {
		rf = workload.DiurnalRate(rate, swing, period)
	} else {
		rf = workload.ConstantRate(rate)
	}
	window := s.Window
	if window <= 0 {
		window = 10
	}
	opts := apps.StreamOptions{
		Seed:       s.Seed,
		Rate:       rf,
		Window:     stream.Window{Size: window, Slide: s.Slide},
		SLO:        stream.SLO{TargetRelErr: s.TargetRelErr, MaxLatency: s.MaxLatency},
		Capacity:   s.Capacity,
		MaxWindows: s.MaxWindows,
	}
	// The source log is the scenario dataset's default generator with
	// the spec's size overrides and its seed added to the generator's.
	or := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	var input *dfs.File
	e, _ := apps.Lookup(s.App)
	switch {
	case e.Stream != nil && e.Dataset == apps.EditLog:
		g := workload.DefaultEditLog()
		g.Blocks, g.LinesPerBlock, g.Seed = or(s.Blocks, g.Blocks), or(s.LinesPerBlock, g.LinesPerBlock), g.Seed+s.Seed
		input = g.File("stream-input")
	case e.Stream != nil && e.Dataset == apps.WebLog:
		g := workload.DefaultWebLog()
		g.Blocks, g.LinesPerBlock, g.Seed = or(s.Blocks, g.Blocks), or(s.LinesPerBlock, g.LinesPerBlock), g.Seed+s.Seed
		input = g.File("stream-input")
	default:
		return nil, fmt.Errorf("jobserver: unknown stream app %q (have %v)", s.App, apps.Names(func(e apps.Entry) bool { return e.Stream != nil }))
	}
	return e.Stream(input, opts), nil
}

// StreamStatus is the lifecycle state of a continuous query.
type StreamStatus string

// Stream lifecycle states.
const (
	StreamRunning  StreamStatus = "running"
	StreamDone     StreamStatus = "done"
	StreamFailed   StreamStatus = "failed"
	StreamStopped  StreamStatus = "stopped"
	StreamRejected StreamStatus = "rejected"
)

// Terminal reports whether the status is final.
func (s StreamStatus) Terminal() bool { return s != StreamRunning }

// StreamState is the externally visible state of one stream. Reads
// through Info/List return copies safe to use from any goroutine.
type StreamState struct {
	ID     string       `json:"id"`
	Spec   StreamSpec   `json:"spec"`
	Status StreamStatus `json:"status"`
	Err    string       `json:"error,omitempty"`
	// Windows counts the frames emitted so far: the next watch cursor
	// (Seq).
	Windows int `json:"-"`
}

// streamEntry is the set's per-stream bookkeeping.
type streamEntry struct {
	state    *StreamState // guarded by StreamSet.mu; Windows is filled by info
	canceled bool         // guarded by StreamSet.mu
	// frames is the emitted series, one encoded frame per closed window
	// and Seq (see frames.go). Appends happen on the stream's
	// pipeline goroutine; reads anywhere under StreamSet.mu. Published
	// elements are never overwritten, so a watcher may keep reading the
	// sub-slice it was handed after it drops the lock.
	frames []*encFrame
}

// StreamSet runs and tracks continuous queries. All methods are safe
// from any goroutine.
type StreamSet struct {
	max int

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[string]*streamEntry
	order   []string
	seq     int
	running int
	closed  bool
	wg      sync.WaitGroup
}

// NewStreamSet builds a registry. maxActive caps concurrently running
// streams (default 8).
func NewStreamSet(maxActive int) *StreamSet {
	if maxActive <= 0 {
		maxActive = 8
	}
	s := &StreamSet{max: maxActive, streams: make(map[string]*streamEntry)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Open validates a spec and starts its pipeline on a fresh goroutine,
// returning the stream id watchers poll.
func (s *StreamSet) Open(spec StreamSpec) (string, error) {
	p, err := spec.Build()
	if err != nil {
		return "", err
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("%s-%d", spec.App, spec.Seed)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("jobserver: stream set shut down")
	}
	if s.running >= s.max {
		s.mu.Unlock()
		return "", ErrBusy
	}
	id := fmt.Sprintf("stream-%04d", s.seq)
	s.seq++
	s.running++
	e := &streamEntry{state: &StreamState{ID: id, Spec: spec, Status: StreamRunning}}
	s.streams[id] = e
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.run(e, p)
	return id, nil
}

// run drives one stream's pipeline to completion, publishing each
// closed window as a watchable frame.
func (s *StreamSet) run(e *streamEntry, p *stream.Pipeline) {
	defer s.wg.Done()
	seq := 0
	err := p.RunEach(func(r stream.WindowResult) error {
		// The pipeline says which window is its last, so that frame is
		// born terminal (done, final=true) and the status flips in the
		// critical section that publishes it: a watcher sees the last
		// data frame and the ending together or not at all.
		status := StreamRunning
		if r.Last {
			status = StreamDone
		}
		// Encode the wire frame once, outside the lock (this pipeline
		// goroutine is the stream's only frame producer); every watcher
		// shares the buffer.
		f := newWindowFrameEnc(wireWindow(seq, status, r))
		s.mu.Lock()
		if e.canceled || s.closed {
			s.mu.Unlock()
			return errStreamCanceled
		}
		e.frames = append(e.frames, f)
		seq++
		if r.Last {
			s.end(e, StreamDone, "")
		}
		s.mu.Unlock()
		s.cond.Broadcast()
		return nil
	})
	s.finish(e, err)
}

// end makes a running stream terminal and frees its slot. Callers hold
// s.mu and broadcast after releasing it.
func (s *StreamSet) end(e *streamEntry, status StreamStatus, errText string) {
	e.state.Status = status
	e.state.Err = errText
	s.running--
}

// finish publishes the ending of a stream whose last window did not:
// one stopped or failed mid-series, or one that drained without ever
// opening a window.
func (s *StreamSet) finish(e *streamEntry, err error) {
	s.mu.Lock()
	defer s.cond.Broadcast()
	defer s.mu.Unlock()
	if e.state.Status.Terminal() {
		return // ended with its last window
	}
	switch {
	case errors.Is(err, errStreamCanceled):
		s.end(e, StreamStopped, errStreamCanceled.Error())
	case err != nil:
		s.end(e, StreamFailed, err.Error())
	default:
		s.end(e, StreamDone, "")
	}
	if n := len(e.frames); n > 0 {
		// The last published frame carries the terminal status, in the
		// same critical section as the status flip, so watchers observe
		// both or neither.
		e.frames = withLast(e.frames, restampWindowFrame(e.frames[n-1], e.state.Status))
	}
}

// Stop requests a running stream's pipeline to end at its next window;
// terminal streams are left alone. Unknown ids error.
func (s *StreamSet) Stop(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("jobserver: no stream %q", id)
	}
	e.canceled = true
	return nil
}

// Info returns a copy of one stream's state.
func (s *StreamSet) Info(id string) (StreamState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.streams[id]
	if !ok {
		return StreamState{}, false
	}
	return e.info(), true
}

// List returns every stream's state in open order.
func (s *StreamSet) List() []StreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.streams[id].info())
	}
	return out
}

// info snapshots the entry's state under the set lock.
func (e *streamEntry) info() StreamState {
	st := *e.state
	st.Windows = len(e.frames)
	return st
}

// WatchFramesFrom blocks until stream id has frames beyond `have` or
// is terminal, then returns the fresh shared frames (see freshFrames),
// the status, and the updated cursor — the streaming-plane mirror of
// Service.FramesFrom. Callers loop until Terminal.
func (s *StreamSet) WatchFramesFrom(id string, have, maxLag int) ([]*encFrame, StreamStatus, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		e, ok := s.streams[id]
		if !ok {
			return nil, "", have, fmt.Errorf("jobserver: no stream %q", id)
		}
		fresh, next, ready := freshFrames(e.frames, have, maxLag, e.state.Status.Terminal())
		if ready {
			return fresh, e.state.Status, next, nil
		}
		if s.closed {
			return nil, e.state.Status, next, errors.New("jobserver: stream set shut down")
		}
		s.cond.Wait()
	}
}

// Close stops every running stream at its next window, wakes all
// watchers, and waits for the pipelines to exit. Idempotent.
func (s *StreamSet) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}
