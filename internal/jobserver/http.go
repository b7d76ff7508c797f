package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/wire"
)

// The HTTP/JSON API of cmd/approxd. All payloads are NaN-safe:
// WireEstimates maps non-finite interval half-widths onto the -1
// sentinel with Unbounded set, the same convention as
// mapreduce.WriteJSON, because encoding/json rejects NaN/Inf.
//
//	POST   /v1/jobs          submit a JobSpec   -> {"id": ...}; a journaled
//	                         daemon fsyncs the spec first
//	GET    /v1/jobs          list job states
//	GET    /v1/jobs/{id}     one job's state
//	DELETE /v1/jobs/{id}     cancel
//	GET    /v1/jobs/{id}/result   final result (409 until terminal)
//	GET    /v1/jobs/{id}/stream   wire.JobFrame stream: snapshots with
//	                              narrowing CIs, last frame final=true;
//	                              ?from=N resumes after sequence N-1;
//	                              ?lag=N|off tunes drop-to-latest; JSONL
//	                              by default, length-prefixed binary when
//	                              Accept names wire.ContentType
//	POST   /v1/replay        run a whole trace ([]JobSpec), return states
//	GET    /v1/stats         service counters
//	GET    /healthz          liveness; 503 once the journal has failed
//	GET    /readyz           readiness; 503 while draining (Retry-After)
//
// The /v1/streams routes (streamhttp.go) are the continuous-query API
// of the streaming plane: open a StreamSpec, watch its per-window
// estimates as Seq-resumable JSONL frames, stop it.

// WireEstimate is wire.Estimate; kept for bench/, goes at ROADMAP item
// 5's unfreeze.
type WireEstimate = wire.Estimate

// WireResult is the JSON-safe form of a completed job's Result.
type WireResult struct {
	Job      string             `json:"job"`
	Runtime  float64            `json:"runtimeSecs"`
	EnergyWh float64            `json:"energyWh"`
	Counters mapreduce.Counters `json:"counters"`
	Outputs  []wire.Estimate    `json:"outputs"`
}

// WireState is the JSON form of one JobState.
type WireState struct {
	ID       string      `json:"id"`
	Spec     JobSpec     `json:"spec"`
	Status   JobStatus   `json:"status"`
	SubmitVT float64     `json:"submitVT"`
	StartVT  float64     `json:"startVT"`
	EndVT    float64     `json:"endVT"`
	Err      string      `json:"error,omitempty"`
	Result   *WireResult `json:"result,omitempty"`
}

// WireEstimates converts estimates to their frame form, mapping
// non-finite half-widths to the -1 sentinel. (bench/ compiles against
// the name; it goes at ROADMAP item 5's unfreeze.)
func WireEstimates(ests []mapreduce.KeyEstimate) []wire.Estimate {
	out := make([]wire.Estimate, 0, len(ests))
	for _, e := range ests {
		w := wire.Estimate{
			Key:        e.Key,
			Value:      e.Est.Value,
			Epsilon:    e.Est.Err,
			Confidence: e.Est.Conf,
			Lo:         e.Est.Lo(),
			Hi:         e.Est.Hi(),
			Exact:      e.Exact,
		}
		if math.IsNaN(w.Epsilon) || math.IsInf(w.Epsilon, 0) || math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
			if math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
				w.Value = 0
			}
			w.Epsilon = -1
			w.Lo = w.Value
			w.Hi = w.Value
			w.Unbounded = true
		}
		out = append(out, w)
	}
	return out
}

// wireResult converts a Result (nil-safe).
func wireResult(res *mapreduce.Result) *WireResult {
	if res == nil {
		return nil
	}
	return &WireResult{
		Job:      res.Job,
		Runtime:  res.Runtime,
		EnergyWh: res.EnergyWh,
		Counters: res.Counters,
		Outputs:  WireEstimates(res.Outputs),
	}
}

// wireState converts a JobState.
func wireState(st JobState) WireState {
	return WireState{
		ID:       st.ID,
		Spec:     st.Spec,
		Status:   st.Status,
		SubmitVT: st.SubmitVT,
		StartVT:  st.StartVT,
		EndVT:    st.EndVT,
		Err:      st.Err,
		Result:   wireResult(st.Result),
	}
}

func wireStates(sts []JobState) []WireState {
	out := make([]WireState, 0, len(sts))
	for _, st := range sts {
		out = append(out, wireState(st))
	}
	return out
}

// Handler returns the daemon's HTTP API. Set RequestTimeout and
// MaxBody on the Daemon before calling it to harden the request path;
// both zero values leave behavior unlimited (handy in tests).
//
// The timeout wraps every quick endpoint with http.TimeoutHandler.
// Exempt by design: /stream (open-ended long poll) and /replay (a
// synchronous batch run whose duration is the work itself).
func (d *Daemon) Handler() http.Handler {
	quick := func(h http.HandlerFunc) http.Handler {
		if d.RequestTimeout <= 0 {
			return h
		}
		return http.TimeoutHandler(h, d.RequestTimeout, `{"error":"request timed out"}`)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", quick(d.handleSubmit))
	mux.Handle("GET /v1/jobs", quick(d.handleList))
	mux.Handle("GET /v1/jobs/{id}", quick(d.handleGet))
	mux.Handle("DELETE /v1/jobs/{id}", quick(d.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/result", quick(d.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", d.handleStream)
	mux.HandleFunc("POST /v1/replay", d.handleReplay)
	mux.Handle("GET /v1/stats", quick(d.handleStats))
	mux.Handle("POST /v1/streams", quick(d.handleStreamOpen))
	mux.Handle("GET /v1/streams", quick(d.handleStreamList))
	mux.Handle("GET /v1/streams/{id}", quick(d.handleStreamGet))
	mux.Handle("DELETE /v1/streams/{id}", quick(d.handleStreamStop))
	mux.HandleFunc("GET /v1/streams/{id}/watch", d.handleStreamWatch)
	mux.Handle("GET /healthz", quick(d.handleHealthz))
	mux.Handle("GET /readyz", quick(d.handleReadyz))
	return mux
}

// handleHealthz reports liveness: the process serves traffic and can
// still promise durability. A journal I/O failure flips it to 503 so
// an operator (or orchestrator) restarts the daemon onto a good disk.
func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := d.fleet.JournalErr(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("journal failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "journaled": d.fleet.Shard(0).Journaled()})
}

// handleReadyz reports readiness to accept new submissions: false
// while draining (load balancers stop routing here; running jobs
// finish undisturbed) or after a journal failure.
func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := d.fleet.JournalErr(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("journal failed: %w", err))
		return
	}
	if d.fleet.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// maxBody is the effective POST body bound.
func (d *Daemon) maxBody() int64 {
	if d.MaxBody > 0 {
		return d.MaxBody
	}
	return 4 << 20 // default 4 MiB: a generous trace, not a DoS vector
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errcheck the response writer owns delivery; an encode error here has no one left to tell
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody())).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
		return
	}
	id, err := d.fleet.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		// The daemon is shutting down gracefully; the journal keeps what
		// it already accepted, new work must wait for the restart.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"id": id})
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, wireStates(d.fleet.Jobs()))
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := d.fleet.JobInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, wireState(st))
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.fleet.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceled"})
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := d.fleet.JobInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	if !st.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", st.ID, st.Status))
		return
	}
	if st.Result == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Err))
		return
	}
	writeJSON(w, http.StatusOK, wireResult(st.Result))
}

// wantBinary negotiates the stream encoding: a client whose Accept
// header names the binary frame media type gets length-prefixed binary
// frames; everyone else gets JSONL. Either way every
// subscriber of a job shares the same encoded buffers (frames.go).
func wantBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// streamLag resolves the effective slow-subscriber drop threshold for
// one request: DefaultMaxLag, overridable per connection with ?lag=N
// (N frames behind a live job triggers drop-to-latest; lag=off
// disables it, e.g. for an auditing client that must see every frame).
func streamLag(r *http.Request) int {
	q := r.URL.Query().Get("lag")
	if q == "off" {
		return 0
	}
	if n, err := strconv.Atoi(q); err == nil && n > 0 {
		return n
	}
	return DefaultMaxLag
}

// terminalStatus is what JobStatus and StreamStatus share.
type terminalStatus interface {
	~string
	Terminal() bool
}

// serveFrames writes one frame log to one subscriber — JSONL, or
// negotiated binary — from the ?from cursor until the log is terminal.
// next is the log's blocking read (Service.FramesFrom,
// StreamSet.WatchFramesFrom); marker synthesises the ending of a log
// that is terminal with nothing left to carry it. Frames are
// pre-encoded and shared, so this only copies buffers, and a stalled
// client blocks nothing but its own connection (falling too far behind
// skips it to the latest frame — the Seq gap is its drop signal).
func serveFrames[S terminalStatus](d *Daemon, w http.ResponseWriter, r *http.Request, id string,
	next func(id string, have, maxLag int) ([]*encFrame, S, int, error),
	marker func(seq int, status S) *encFrame) {
	binary := wantBinary(r)
	if binary {
		w.Header().Set("Content-Type", wire.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before blocking for the first frame, so
		// clients observe a connected stream even on an idle job.
		flusher.Flush()
	}
	cursor := 0
	if from := r.URL.Query().Get("from"); from != "" {
		// Reconnect resume: skip frames the client already has.
		if n, err := strconv.Atoi(from); err == nil && n > 0 {
			cursor = n
		}
	}
	lag := streamLag(r)
	for {
		fresh, status, after, err := next(id, cursor, lag)
		if err != nil {
			return
		}
		cursor = after
		if status.Terminal() && len(fresh) == 0 {
			// Ended before any frame, after the subscriber's last one, or
			// a resume that was already caught up: one terminal marker, so
			// clients always see an ending. A job that completes or a
			// stream that drains does not come here on a live connection:
			// its last data frame is born terminal.
			fresh = []*encFrame{marker(cursor, status)}
		}
		for _, f := range fresh {
			if f.WriteTo(w, binary) != nil {
				return // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if status.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

// handleStream serves a job's snapshot frames, ending with the terminal
// frame (final=true for successful jobs).
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	svc := d.fleet.ServiceFor(id)
	if _, ok := svc.JobInfo(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	serveFrames(d, w, r, id, svc.FramesFrom, synthJobFrame)
}

func (d *Daemon) handleReplay(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody())).Decode(&specs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace: %w", err))
		return
	}
	states, err := d.fleet.Replay(specs)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, wireStates(states))
}

func (d *Daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, err := d.fleet.Stats()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
