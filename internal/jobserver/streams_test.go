package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/wire"
	"approxhadoop/internal/workload"
)

// tinyStreamSpec is a continuous query small enough for unit tests.
func tinyStreamSpec(seed int64) StreamSpec {
	return StreamSpec{
		App:           "edit-rate",
		Blocks:        8,
		LinesPerBlock: 1500,
		Seed:          seed,
		Window:        5,
		MaxLatency:    0.05,
		Rate:          300,
		Swing:         0.5,
		Period:        60,
		MaxWindows:    6,
	}
}

// decodeWindow decodes an encoded window frame.
func decodeWindow(t *testing.T, f *encFrame) *wire.WindowFrame {
	t.Helper()
	ww, err := wire.DecodeWindowFrame(f.bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return ww
}

// watchAll drains a stream through WatchFramesFrom the way an HTTP
// client would: loop on the cursor until terminal.
func watchAll(t *testing.T, s *StreamSet, id string, from int) ([]*encFrame, StreamStatus) {
	t.Helper()
	var wins []*encFrame
	cursor := from
	for {
		fresh, status, next, err := s.WatchFramesFrom(id, cursor, 0)
		if err != nil {
			t.Fatalf("watch %s from %d: %v", id, cursor, err)
		}
		wins = append(wins, fresh...)
		cursor = next
		if status.Terminal() {
			return wins, status
		}
	}
}

// seriesBytes is a watched series as it goes on the wire.
func seriesBytes(frames []*encFrame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f.bin...)
	}
	return b
}

// TestStreamSetWatchAndResume: a watcher sees every window exactly
// once, a resumed watcher sees exactly the suffix, and reopening the
// same spec — even in a fresh set, as after a daemon restart — replays
// a byte-identical series.
func TestStreamSetWatchAndResume(t *testing.T) {
	s := NewStreamSet(4)
	defer s.Close()
	id, err := s.Open(tinyStreamSpec(11))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wins, status := watchAll(t, s, id, 0)
	if status != StreamDone {
		t.Fatalf("stream ended %s; want done", status)
	}
	if len(wins) != 6 {
		t.Fatalf("watched %d windows; want 6 (MaxWindows)", len(wins))
	}
	for i, f := range wins {
		if ww := decodeWindow(t, f); ww.Seq != i || ww.Index != int64(i) || ww.Records <= 0 {
			t.Errorf("frame %d is seq %d, window %d, %d records", i, ww.Seq, ww.Index, ww.Records)
		}
	}

	// Resume mid-series: the suffix must match what the full watch saw.
	tail, _ := watchAll(t, s, id, 3)
	if len(tail) != 3 {
		t.Fatalf("resume from 3 returned %d windows; want 3", len(tail))
	}
	if !bytes.Equal(seriesBytes(tail), seriesBytes(wins[3:])) {
		t.Errorf("resumed suffix differs from the original series")
	}
	// A cursor past the end clamps instead of erroring.
	none, st2, next, err := s.WatchFramesFrom(id, 99, 0)
	if err != nil || len(none) != 0 || next != 6 || !st2.Terminal() {
		t.Errorf("over-large cursor: got %d wins, status %s, next %d, err %v", len(none), st2, next, err)
	}

	// Replay-from-spec: a second set (a restarted daemon) re-emits the
	// identical series.
	s2 := NewStreamSet(4)
	defer s2.Close()
	id2, err := s2.Open(tinyStreamSpec(11))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wins2, _ := watchAll(t, s2, id2, 0)
	if !bytes.Equal(seriesBytes(wins), seriesBytes(wins2)) {
		t.Errorf("reopened stream series differs:\n%x\nvs\n%x", seriesBytes(wins), seriesBytes(wins2))
	}
}

// TestStreamSetValidation: broken specs are rejected at Open, not at
// first window.
func TestStreamSetValidation(t *testing.T) {
	s := NewStreamSet(2)
	defer s.Close()
	if _, err := s.Open(StreamSpec{App: "no-such-app"}); err == nil {
		t.Errorf("unknown app accepted")
	}
	if _, err := s.Open(StreamSpec{App: "edit-rate", Swing: 1.5}); err == nil {
		t.Errorf("swing >= 1 accepted")
	}
	if _, err := s.Open(tinyStreamSpec(1)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestStreamSpecUnsetSwingIsConstantRate: a spec that leaves swing
// unset runs a constant 400 rec/s, not the diurnal curve — the same
// series apps.WebBytesStream gives at workload.ConstantRate(400) over
// the same generator and seed.
func TestStreamSpecUnsetSwingIsConstantRate(t *testing.T) {
	spec := StreamSpec{App: "web-bytes", Blocks: 8, LinesPerBlock: 2000, Seed: 5, MaxWindows: 3}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := workload.DefaultWebLog()
	g.Blocks, g.LinesPerBlock, g.Seed = spec.Blocks, spec.LinesPerBlock, g.Seed+spec.Seed
	want, err := apps.WebBytesStream(g, apps.StreamOptions{
		Seed:       spec.Seed,
		Rate:       workload.ConstantRate(400),
		MaxWindows: spec.MaxWindows,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d windows, want 3", len(got))
	}
	if !bytes.Equal(stream.SeriesBytes(got), stream.SeriesBytes(want)) {
		t.Errorf("unset swing:\n%s\nconstant 400 rec/s:\n%s", stream.SeriesBytes(got), stream.SeriesBytes(want))
	}
}

// TestStreamHTTPWatch: the /v1/streams routes end to end — open over
// HTTP, watch the JSONL frames to the final one, resume with ?from,
// and read back the listed state.
func TestStreamHTTPWatch(t *testing.T) {
	svc := New(Config{Workers: 1})
	d := NewFleetDaemon([]*Service{svc}, false)
	defer d.Stop()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	spec, _ := json.Marshal(tinyStreamSpec(5))
	resp, err := srv.Client().Post(srv.URL+"/v1/streams", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var opened map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatalf("open decode: %v", err)
	}
	resp.Body.Close()
	id := opened["id"]
	if id == "" {
		t.Fatalf("open returned no id: %v", opened)
	}

	frames := watchHTTP(t, srv, id, 0)
	if len(frames) != 6 {
		t.Fatalf("watched %d frames; want 6", len(frames))
	}
	for i, f := range frames {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d; frames must be gap-free", i, f.Seq)
		}
		if f.Records <= 0 {
			t.Errorf("frame %d carries no records", i)
		}
	}
	if !frames[len(frames)-1].Final {
		t.Errorf("last frame not marked final")
	}

	// Seq-resume: frames 4.. must match the first watch byte-for-byte
	// up to the Status field (terminal on resume).
	tail := watchHTTP(t, srv, id, 4)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Fatalf("resume from 4: got %d frames starting at %v", len(tail), tail)
	}
	if tail[0].Index != frames[4].Index || tail[0].Value != frames[4].Value { //lint:ignore nofloateq resumed frames must be bit-identical
		t.Errorf("resumed frame differs: %+v vs %+v", tail[0], frames[4])
	}

	var listed []WireStream
	if code := getJSON(t, srv.URL+"/v1/streams", &listed); code != 200 {
		t.Fatalf("list returned %d", code)
	}
	if len(listed) != 1 || listed[0].ID != id || listed[0].Windows != 6 || listed[0].Status != StreamDone {
		t.Errorf("listed state %+v; want %s done with 6 windows", listed, id)
	}

	// Bad specs come back 400.
	resp, err = srv.Client().Post(srv.URL+"/v1/streams", "application/json", bytes.NewReader([]byte(`{"app":"nope"}`)))
	if err != nil {
		t.Fatalf("bad open: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown app returned %d; want 400", resp.StatusCode)
	}
}

// watchHTTP drains /v1/streams/{id}/watch?from=N into frames.
func watchHTTP(t *testing.T, srv *httptest.Server, id string, from int) []wire.WindowFrame {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/streams/" + id + "/watch?from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	var frames []wire.WindowFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f wire.WindowFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch read: %v", err)
	}
	return frames
}

// TestStreamTerminalFrameLeavesSnapshotsAlone: a watcher reads the
// frames WatchFramesFrom handed it after dropping the set's lock, so
// publishing the terminal frame must not write to that slice. The read
// below and finish's write are unordered (no lock, no channel between
// them), so under -race an in-place restamp is reported however the
// goroutines are scheduled; without -race the pointer check catches it.
func TestStreamTerminalFrameLeavesSnapshotsAlone(t *testing.T) {
	s := NewStreamSet(1)
	defer s.Close()
	const id = "stream-0000"
	e := &streamEntry{state: &StreamState{ID: id, Status: StreamRunning}}
	for seq := 0; seq < 3; seq++ {
		e.frames = append(e.frames, newWindowFrameEnc(wire.WindowFrame{Seq: seq, Status: string(StreamRunning), Records: 10}))
	}
	s.streams[id] = e
	s.running = 1

	held, status, next, err := s.WatchFramesFrom(id, 1, 0)
	if err != nil || status != StreamRunning || next != 3 || len(held) != 2 {
		t.Fatalf("live watch: %d frames, status %s, next %d, err %v", len(held), status, next, err)
	}
	last := held[1]
	done := make(chan struct{})
	go func() {
		s.finish(e, nil)
		close(done)
	}()
	if got := held[1]; got != last { // unordered with finish's write
		t.Errorf("held snapshot changed under the watcher")
	}
	<-done
	if held[1] != last || decodeWindow(t, held[1]).Final {
		t.Errorf("terminal transition wrote to a watcher's snapshot: %+v", decodeWindow(t, held[1]))
	}
	fresh, status, _, err := s.WatchFramesFrom(id, 2, 0)
	if err != nil || status != StreamDone || len(fresh) != 1 {
		t.Fatalf("terminal watch: %d frames, status %s, err %v", len(fresh), status, err)
	}
	if ww := decodeWindow(t, fresh[0]); !ww.Final || ww.Status != string(StreamDone) || ww.Seq != 2 || ww.Records != 10 {
		t.Errorf("terminal frame %+v; want seq 2, done, final", ww)
	}
}

// runSource adapts a function to stream.Source.
type runSource func(fn func(t float64, line []byte) error) error

func (s runSource) Run(fn func(t float64, line []byte) error) error { return s(fn) }

// checkWatchReturn is the watch contract of a stream that ends by
// itself: a WatchFramesFrom return is terminal exactly when its last
// fresh frame is the final one, so no watcher is ever left between
// "last data frame" and "ended".
func checkWatchReturn(t *testing.T, who string, fresh []*encFrame, status StreamStatus) {
	t.Helper()
	final := len(fresh) > 0 && decodeWindow(t, fresh[len(fresh)-1]).Final
	if status.Terminal() != final {
		t.Errorf("%s: %d fresh frames, status %s, last frame final = %v", who, len(fresh), status, final)
	}
	for _, f := range fresh[:max(len(fresh)-1, 0)] {
		if ww := decodeWindow(t, f); ww.Final || ww.Status != string(StreamRunning) {
			t.Errorf("%s: frame %d of a longer series is stamped %s, final %v", who, ww.Seq, ww.Status, ww.Final)
		}
	}
}

// TestStreamWatchEndsWithItsLastFrame holds every WatchFramesFrom
// return to checkWatchReturn. First with a watcher that cannot be
// lucky. It reads on the goroutine that folds the records and publishes
// the windows, from the query's Value as each record is folded, so it
// sees every window the moment it is published and before run can do
// anything else. The window that spends the budget stops the folds, so
// no Value follows it; the watcher reads that one from the source, when
// the pipeline stops it: after the last window is published and before
// RunEach returns, so before run's finish. Then with free-running
// watchers racing a stream that spends a window budget and one that
// drains its source.
func TestStreamWatchEndsWithItsLastFrame(t *testing.T) {
	s := NewStreamSet(4)
	defer s.Close()
	const id = "stream-by-hand"
	e := &streamEntry{state: &StreamState{ID: id, Status: StreamRunning}}
	s.streams[id] = e
	s.running = 1
	cursor, ended, atStop := 0, false, -1
	watch := func() {
		if st, _ := s.Info(id); ended || (st.Windows == cursor && !st.Status.Terminal()) {
			return // a real watcher would be parked, or gone
		}
		fresh, status, next, err := s.WatchFramesFrom(id, cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkWatchReturn(t, "in-line watcher", fresh, status)
		cursor, ended = next, status.Terminal()
	}
	p := &stream.Pipeline{
		Query: stream.Query{
			Op:       stream.OpSum,
			Stratify: func(line []byte) []byte { return line },
			// A window's four records all fit its reservoir, so Value
			// runs for every record.
			Value: func([]byte) (float64, bool) {
				watch()
				return 1, true
			},
			Window: stream.Window{Size: 1},
		},
		// The source runs on the pipeline's own goroutine and sees an
		// error only once the folds have stopped, which orders this read
		// after the last Value's and after the last window's publication.
		Source: runSource(func(fn func(t float64, line []byte) error) error {
			for i := 0; ; i++ {
				if err := fn(float64(i)/4, []byte("x")); err != nil {
					watch()
					atStop = cursor
					return err
				}
			}
		}),
		MaxWindows: 5,
	}
	s.wg.Add(1)
	s.run(e, p)
	if atStop != 5 {
		t.Errorf("in-line watcher: %d frames read when the source was stopped; want all 5", atStop)
	}
	watch()
	if !ended || cursor != 5 {
		t.Errorf("in-line watcher: ended = %v after %d frames; want the 5th frame to end it", ended, cursor)
	}

	drained := tinyStreamSpec(3)
	drained.MaxWindows = 0
	var wg sync.WaitGroup
	for _, spec := range []StreamSpec{tinyStreamSpec(3), drained} {
		id, err := s.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(who string) {
				defer wg.Done()
				for cursor := 0; ; {
					fresh, status, next, err := s.WatchFramesFrom(id, cursor, 0)
					if err != nil {
						t.Error(err)
						return
					}
					checkWatchReturn(t, who, fresh, status)
					if cursor = next; status.Terminal() {
						return
					}
				}
			}(fmt.Sprintf("%s watcher %d", id, w))
		}
	}
	wg.Wait()
}

// TestStreamSetStopLeavesNoGoroutine: a stream stopped by Stop, and one
// stopped by Close, ends with its pipeline's source goroutine gone: the
// source's Run has returned when Close does. Both read a source that
// never runs dry, so the stop is the only way out.
func TestStreamSetStopLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewStreamSet(4)
	var returned atomic.Int32
	endless := func() *stream.Pipeline {
		return &stream.Pipeline{
			Query: stream.Query{
				Op:       stream.OpCount,
				Stratify: func(line []byte) []byte { return line },
				Window:   stream.Window{Size: 1},
			},
			Source: runSource(func(fn func(t float64, line []byte) error) error {
				defer returned.Add(1)
				for i := 0; ; i++ {
					if err := fn(float64(i)/4, []byte("x")); err != nil {
						return err
					}
				}
			}),
		}
	}
	start := func(id string) *streamEntry {
		e := &streamEntry{state: &StreamState{ID: id, Status: StreamRunning}}
		s.mu.Lock()
		s.streams[id] = e
		s.running++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.run(e, endless())
		// Wait for a first window, so the stop lands on a running stream.
		if _, _, _, err := s.WatchFramesFrom(id, 0, 0); err != nil {
			t.Fatal(err)
		}
		return e
	}
	stopped, closed := start("stream-stopped"), start("stream-closed")
	if err := s.Stop("stream-stopped"); err != nil {
		t.Fatal(err)
	}
	for cursor := 0; ; {
		_, status, next, err := s.WatchFramesFrom("stream-stopped", cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cursor = next; status.Terminal() {
			break
		}
	}
	s.Close()
	if n := returned.Load(); n != 2 {
		t.Errorf("%d of 2 sources had returned when Close did", n)
	}
	for _, e := range []*streamEntry{stopped, closed} {
		if st := e.info(); st.Status != StreamStopped {
			t.Errorf("%s: status %s; want %s", st.ID, st.Status, StreamStopped)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
