package jobserver

import (
	"approxhadoop/internal/approx"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"approxhadoop/internal/wire"
)

// The frame streams approxd serves, pinned by SHA-256 of the raw HTTP
// response body in both negotiated forms. Every hash below was recorded
// on the commit before frames were defined once in internal/wire (PR
// 24's parent, a09e567), so a mismatch is a moved byte on the wire —
// never a hash to re-record. Row (f) was re-recorded once since, when
// the window estimator moved from a two-pass to the one-pass s_u^2 the
// batch reducer reads: the epsilon of windows 4 and 5 moved by one ulp,
// every other byte held.
//
// Every row is a pure function of (spec, seed): batch jobs run through
// Service.Replay on the shard's own goroutine (virtual time only), the
// cancel lands from an engine event at a fixed virtual instant, the
// stopped stream is stopped from its source at a fixed record once the
// windows before that record are published, and each body is read after
// its job or stream is terminal or from a series whose last frame is
// born terminal.
//
// The engine does publish snapshots before the first map wave lands:
// with a one-second period rows (a), (b) and (c) each open with two
// zero-estimate frames (asserted for (a) below), whose JSONL form
// prints "estimates":[]. The per-connection terminal marker of a
// caught-up resume, rows (h) and (i), never held estimates and prints
// "estimates":null.

const frozenSnapshotEvery = 1

var (
	frozenPrecise = JobSpec{Name: "a-precise", App: "total-size", Blocks: 160, LinesPerBlock: 50, Seed: 3}
	frozenSampled = JobSpec{Name: "b-sampled", App: "project-popularity", Blocks: 200, LinesPerBlock: 50, Seed: 8,
		Approximation: approx.Approximation{SampleRatio: 0.5, DropRatio: 0.25}}
	frozenCanceled = JobSpec{Name: "c-canceled", App: "clients", Blocks: 240, LinesPerBlock: 50, Seed: 9,
		Approximation: approx.Approximation{SampleRatio: 0.5}}
)

// frozenBodies is one row's two renderings.
type frozenBodies struct{ bin, jsonl []byte }

// fetchFrames reads path's whole body in both negotiated forms.
func fetchFrames(t *testing.T, ts *httptest.Server, path string) frozenBodies {
	t.Helper()
	get := func(accept string) []byte {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	return frozenBodies{bin: get(wire.ContentType), jsonl: get("")}
}

// jobFrames decodes a binary job stream body.
func jobFrames(t *testing.T, body []byte) []*wire.JobFrame {
	t.Helper()
	var out []*wire.JobFrame
	for r := bytes.NewReader(body); ; {
		payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.DecodeJobFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// windowFrames decodes a binary window stream body.
func windowFrames(t *testing.T, body []byte) []*wire.WindowFrame {
	t.Helper()
	var out []*wire.WindowFrame
	for r := bytes.NewReader(body); ; {
		payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.DecodeWindowFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// replayOn runs specs to completion on the daemon's only shard, on its
// driver goroutine; before, when set, runs there first.
func replayOn(t *testing.T, d *Daemon, before func(*Service), specs ...JobSpec) []JobState {
	t.Helper()
	var states []JobState
	if err := d.do(func() {
		if before != nil {
			before(d.Service())
		}
		states = d.Service().Replay(specs)
	}); err != nil {
		t.Fatal(err)
	}
	return states
}

func TestFrozenFrames(t *testing.T) {
	got := map[string]frozenBodies{}
	cfg := Config{Workers: 1, SnapshotEvery: frozenSnapshotEvery}

	// (a) precise, (b) static sampled+dropped, (d) resume of (b), (h)
	// caught-up resume of (b): one daemon, one replayed trace.
	{
		d, ts := startDaemon(t, cfg)
		states := replayOn(t, d, nil, frozenPrecise, frozenSampled)
		for _, st := range states {
			if st.Status != StatusDone {
				t.Fatalf("%s: %s %s", st.Spec.Name, st.Status, st.Err)
			}
		}
		got["a precise"] = fetchFrames(t, ts, "/v1/jobs/"+states[0].ID+"/stream")
		got["b static sample+drop"] = fetchFrames(t, ts, "/v1/jobs/"+states[1].ID+"/stream")
		got["d resume b from=2"] = fetchFrames(t, ts, "/v1/jobs/"+states[1].ID+"/stream?from=2")
		got["h caught-up resume b"] = fetchFrames(t, ts, "/v1/jobs/"+states[1].ID+"/stream?from=99")

		a := jobFrames(t, got["a precise"].bin)
		if len(a) < 4 || len(a[0].Estimates) != 0 || len(a[len(a)-1].Estimates) != 1 || !a[len(a)-1].Final {
			t.Errorf("row a: %d frames, first carries %d estimates; want a zero-estimate first frame and a final one-key last", len(a), len(a[0].Estimates))
		}
		b := jobFrames(t, got["b static sample+drop"].bin)
		if tail := jobFrames(t, got["d resume b from=2"].bin); len(b) < 4 || len(tail) != len(b)-2 || tail[0].Seq != 2 {
			t.Errorf("row d: resume returned %d of %d frames", len(tail), len(b))
		}
		if m := jobFrames(t, got["h caught-up resume b"].bin); len(m) != 1 || m[0].Seq != len(b) || m[0].Status != string(StatusDone) || m[0].Final || len(m[0].Estimates) != 0 {
			t.Errorf("row h: caught-up resume sent %+v; want one bare done marker at seq %d", m, len(b))
		}
	}

	// (c) canceled from an engine event between the fourth and fifth
	// snapshot: the last frame is restamped canceled.
	{
		d, ts := startDaemon(t, cfg)
		states := replayOn(t, d, func(s *Service) {
			s.Engine().At(s.Engine().Now()+4.5*frozenSnapshotEvery, func() {
				if err := s.Cancel("job-0000"); err != nil {
					t.Error(err)
				}
			})
		}, frozenCanceled)
		if states[0].Status != StatusCanceled {
			t.Fatalf("row c: %s %s", states[0].Status, states[0].Err)
		}
		got["c canceled mid-run"] = fetchFrames(t, ts, "/v1/jobs/"+states[0].ID+"/stream")
		c := jobFrames(t, got["c canceled mid-run"].bin)
		if len(c) < 2 {
			t.Fatalf("row c: canceled after %d frames; want >= 2", len(c))
		}
		for i, f := range c {
			want := string(StatusRunning)
			if i == len(c)-1 {
				want = string(StatusCanceled)
			}
			if f.Status != want || f.Final || f.Seq != i {
				t.Errorf("row c: frame %d is seq %d %s final=%v; want %s", i, f.Seq, f.Status, f.Final, want)
			}
		}
	}

	// (e) restored from a journal: exactly the terminal frame.
	{
		path := tempJournal(t)
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(cfg)
		svc.UseJournal(j)
		if st := svc.Replay([]JobSpec{frozenSampled})[0]; st.Status != StatusDone {
			t.Fatalf("row e: %s %s", st.Status, st.Err)
		}
		svc.Close()
		j2, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		svc2 := New(cfg)
		svc2.UseJournal(j2)
		if _, err := svc2.Recover(recs); err != nil {
			t.Fatal(err)
		}
		d := NewFleetDaemon([]*Service{svc2}, false)
		ts := httptest.NewServer(d.Handler())
		t.Cleanup(func() { d.Stop(); ts.Close() })
		got["e restored from journal"] = fetchFrames(t, ts, "/v1/jobs/job-0000/stream")
		if e := jobFrames(t, got["e restored from journal"].bin); len(e) != 1 || !e[0].Final || e[0].Seq != 0 {
			t.Errorf("row e: restored job streams %d frames; want its one final frame", len(e))
		}
	}

	// (f) a stream that drains its source in six windows, (i) a
	// caught-up resume of it, (g) one stopped from its source while its
	// fourth window is open.
	{
		d, ts := startDaemon(t, cfg)
		spec := tinyStreamSpec(11)
		spec.Blocks, spec.MaxWindows = 7, 0
		var opened struct {
			ID string `json:"id"`
		}
		if code := postJSON(t, ts.URL+"/v1/streams", spec, &opened); code != http.StatusOK {
			t.Fatalf("open stream: HTTP %d", code)
		}
		got["f stream drained"] = fetchFrames(t, ts, "/v1/streams/"+opened.ID+"/watch")
		got["i caught-up resume f"] = fetchFrames(t, ts, "/v1/streams/"+opened.ID+"/watch?from=99")
		f := windowFrames(t, got["f stream drained"].bin)
		if len(f) != 6 || !f[5].Final || f[5].Status != string(StreamDone) {
			t.Errorf("row f: %d windows, last %+v; want 6 ending done+final", len(f), f[len(f)-1])
		}
		if m := windowFrames(t, got["i caught-up resume f"].bin); len(m) != 1 || m[0].Seq != 6 || m[0].Status != string(StreamDone) || m[0].Final {
			t.Errorf("row i: caught-up resume sent %+v; want one bare done marker at seq 6", m)
		}

		const id = "stream-by-hand"
		set := d.Streams()
		p, err := tinyStreamSpec(11).Build()
		if err != nil {
			t.Fatal(err)
		}
		// The source runs ahead of the window callback, so at record 7000
		// it first waits for windows 0-2, which the records before it
		// close, to be published. It yields lines the query drops while it
		// waits: they push the records before 7000 to the folds and fold
		// nowhere. Window 3 is closed by a record after 7000 and sees the
		// stop.
		published := func(n int) bool {
			set.mu.Lock()
			defer set.mu.Unlock()
			return len(set.streams[id].frames) >= n
		}
		src, records := p.Source, 0
		p.Source = runSource(func(fn func(t float64, line []byte) error) error {
			return src.Run(func(at float64, line []byte) error {
				if records++; records == 7000 {
					for !published(3) {
						if err := fn(at, nil); err != nil {
							return err
						}
						runtime.Gosched()
					}
					if err := set.Stop(id); err != nil {
						t.Error(err)
					}
				}
				return fn(at, line)
			})
		})
		e := &streamEntry{state: &StreamState{ID: id, Status: StreamRunning}}
		set.mu.Lock()
		set.streams[id] = e
		set.running++
		set.mu.Unlock()
		set.wg.Add(1)
		set.run(e, p)
		got["g stream stopped mid-series"] = fetchFrames(t, ts, "/v1/streams/"+id+"/watch")
		g := windowFrames(t, got["g stream stopped mid-series"].bin)
		if len(g) < 2 || len(g) >= 6 {
			t.Fatalf("row g: stopped after %d windows; want mid-series", len(g))
		}
		for i, w := range g {
			want := string(StreamRunning)
			if i == len(g)-1 {
				want = string(StreamStopped)
			}
			if w.Status != want || w.Final || w.Seq != i {
				t.Errorf("row g: frame %d is seq %d %s final=%v; want %s", i, w.Seq, w.Status, w.Final, want)
			}
		}
	}

	// name: {binary body, JSONL body}
	want := map[string][2]string{
		"a precise":                   {"5af5a6117ac607a9c2a308e7a9eb67ed3567cbaa93460ccca2054e7498277fbb", "5677fbc08ad0b7e93341b43eef3c8f623ca15454b77582467d47c83de09a717f"}, // 444 / 991 bytes
		"b static sample+drop":        {"455c229de4bad0fb7c419ae531dc4e3d8c7e3a4f920fbc16187d872a1b0feb67", "05dbcf7a366f8f87236df69b0d4e4372b46168b216b46bb08f8d15d994a00a21"}, // 7456 / 21081 bytes
		"c canceled mid-run":          {"827110206d0dea9f5dd5d68f63b53d956d320848f84caefffcb9b5b45f16d013", "7e7883bd5080f9a74ba2f2e41b85c0901f78119a43f34acc852ff8f0acf8aea1"}, // 16637 / 48829 bytes
		"d resume b from=2":           {"1f0c5bc2feb3bfda7bc015123b5ff6926652a619ffa3462f6c16e3d89aa065a2", "44ca24efc7cf276225fda6ee317eae4c18c624d77d8aa6a4cd16ac0d38a50d9a"}, // 7404 / 20981 bytes
		"e restored from journal":     {"24b3d9b64008eff5058070188c7a2fa7e54c7f887a619de64f16630091432b13", "54aea46c0818531fb9e26978749c8c184ad0d9cb62e275dd49ef1c1decd44728"}, // 2414 / 6890 bytes
		"f stream drained":            {"45cc38f87bca43d65de1f3e97304440aed8febc2e28174cb2bb15e17bf23add0", "dbca4debc6bfe46388e82dc58fed39129e2200ca835f2e6d82dff11aca3af8f2"}, // 495 / 1692 bytes
		"g stream stopped mid-series": {"4d197b63ab6cb6713f26847e807c78faff99574e0cdac5fbbdf922d8c41acef7", "77b9b96e3c59bf74582002222f88426c25897a1194b0959ce47e6275e85f6509"}, // 249 / 800 bytes
		"h caught-up resume b":        {"b740e60b24469c7f50a6b4993d3a9c26bc253d9c158196f917fa0c8ef0599101", "e18fa8728f1ad360d4c8ced3fd5b27bf557703a6a0e1bd7e36122d240a11a498"}, // 23 / 50 bytes
		"i caught-up resume f":        {"44d076875d11601d2127367409ec9b4613adb78803e0291f65f67e0343c5ea7a", "415401108b489dd751c67470fb184c28479ba736e20871cb51ba6f0d09e30c38"}, // 77 / 193 bytes
	}
	for name, b := range got {
		sum := func(p []byte) string { h := sha256.Sum256(p); return hex.EncodeToString(h[:]) }
		if w, ok := want[name]; !ok || w != [2]string{sum(b.bin), sum(b.jsonl)} {
			t.Errorf("%q: {%q, %q}, // %d / %d bytes\n\tfrozen %v", name, sum(b.bin), sum(b.jsonl), len(b.bin), len(b.jsonl), w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d rows produced, %d frozen", len(got), len(want))
	}
}
