package jobserver

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"approxhadoop/internal/approx"
)

// testdata/parent-journal.jsonl is the journal of a daemon built before
// specs embedded approx.Approximation, killed with jobs in flight: it
// carries the legacy "controller" key on every approximate spec. Its
// in-flight jobs are precise, static sample, static sample+drop, target,
// strict deadline, best-effort deadline and one "static" job with no
// ratios per service app; its terminal records are a done precise and a
// done sampled job, a strict deadline that failed and a job canceled
// while queued.
//
// parentJournalFrames holds each job's stream, binary and JSONL, by
// SHA-256 as that daemon served them after recovering the same file
// with the procedure below. A mismatch is a moved byte or a legacy spec
// read differently — never a hash to re-record. The no-ratio "static"
// rows now run with no controller at all, and still match.
var parentJournalFrames = map[string][2]string{
	"job-0000 t-doomed":                    {"7152ad30a3d666ceba8d36106fc365ef4dd5a747851db2750a15449f83ce878c", "1cbf1386485c9fb6f0877be25f7f88bf811d2dced603f635bd7bbffb4c83db6a"}, // failed, 25 / 51 bytes
	"job-0001 t-precise":                   {"4292e55af0438691ee833a8d644c8a62f469982a4be76e6e993577881dcbb345", "fa992c8eb9a2329c21a72e59ed40377fd5db7a36c2c60a43303539ed763e7a39"}, // done, 76 / 183 bytes
	"job-0002 t-sampled":                   {"58cb6d71533d9740e5b10edc2e95180902dd3776d86f2d794be4febad7bf18b7", "a5e7b4389667fff4023dc7c97b5895d9708f60821f6f080eac10e8c6c8e8f792"}, // done, 5047 / 15032 bytes
	"job-0003 f-precise":                   {"fa97ac5ed85a971fd5f3ca6796e7c70e3eaf88ca7a74cc9fd299aefa63234b04", "4c22770893f5ad136e07957cb341714b8857378264eacc76d258ec69af7938a6"}, // done, 128 / 283 bytes
	"job-0004 f-sample":                    {"f45ee0c3b553d32ca9d90bc0b9403ebee38b65299ece351ca3248bdca6699bb1", "ae3095e10bd3bc25bd8d3736725844f75de804972242d2a093bddf6cd841960e"}, // done, 2370 / 6730 bytes
	"job-0005 f-sample-drop":               {"2a9952de3c85ad3198b247f3f0093b2b38be5a29dc4f1b1355a265cc6ccb4d94", "936a47a2c9b1a733af609b2ea8f6d004520ba607207f14df15fa79944e594ebd"}, // done, 5822 / 17251 bytes
	"job-0006 f-target":                    {"ffc1f430fbeafdb5b07dc3cf7870baafb9791737c57173d0f945670f8060669c", "1ffee1052a66bad86d31ec28afc7048fedfaa63802043b85208440d499f8d945"}, // done, 26339 / 40185 bytes
	"job-0007 f-deadline-strict":           {"dd93f05f724edbd730e279a898bf67a284ea4c0373e95712bc4cbc2612c62cf1", "f2acc2e3f025590aa6bb780debfcf89e8fa6cfb3cc468459a3d7cbe0b7cd26bb"}, // done, 339 / 800 bytes
	"job-0008 f-deadline-best-effort":      {"f84ecbf7dfb1871723a24e86e23fc41cd4c1dd37b2458cdd81603b891fbc28b1", "fc199f987d37b0966b006def7d7464b4f9cbe8c2571d8391d36ecd12a6d649c1"}, // done, 49 / 127 bytes
	"job-0009 f-static-project-popularity": {"41d203367cf14e64c0eed262b36090278864c77e79cb1a043aca15898de75fe9", "d6159ad2e21ae899bf7188bcd1436dcd4961eb8eb78bf7b8ea8cd7362bdcf29a"}, // done, 2226 / 4004 bytes
	"job-0010 f-static-page-popularity":    {"5a938f96751158aa772330d5cc230bc3199306b5ecd06258564a42904fbcd499", "d39d6e5fda97b1b6a3530129b1ccefdcd188aad5673ad1b973efd13abcf40e91"}, // done, 14476 / 25255 bytes
	"job-0011 f-static-total-size":         {"25570493a8f2ba130b0566e175c98fe3aa6677add6a1bdd72fe8880aef0ac9be", "245c975bf1715ae19fb1371b3852a799f7097a3c1bfa7425d87e8a17688b6db3"}, // done, 128 / 282 bytes
	"job-0012 f-static-clients":            {"c87347a969b07ee099aa5a09e6883624b2d33481d605aa734ce0752b6ca4451f", "1ee8185abb87998bced2deccad9d93aef82d5e9a79d20914f7beac6f5c2659c5"}, // done, 7335 / 13257 bytes
	"job-0013 f-static-wiki-length":        {"c1ae35a140d517900f1dfc02ca2cb26795bf464409966f587f972a436ef699b9", "4aab10b8901ab48573ca82fc06884bc93ce80aa1e9a3e372e9f9030fdce09c2d"}, // done, 499 / 954 bytes
	"job-0014 t-canceled":                  {"08c948d51188d332b49db741853a263ee6249c92ceaf3da90a07c4b650b59f38", "67885b3f9760653787c87995468f862025f17b5c4ff9da2e4e842314a9df2e54"}, // canceled, 27 / 53 bytes
}

func TestParentJournalRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, SnapshotEvery: 1, MaxQueue: 64, MaxActive: 1})
	svc.UseJournal(j)
	rs, err := svc.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Terminal != 4 || rs.Requeued != 11 {
		t.Fatalf("recovery stats %+v, want 4 terminal / 11 requeued", rs)
	}
	svc.Engine().Run()
	d := NewFleetDaemon([]*Service{svc}, false)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { d.Stop(); ts.Close() })

	sum := func(p []byte) string { h := sha256.Sum256(p); return hex.EncodeToString(h[:]) }
	jobs := svc.Jobs()
	for _, st := range jobs {
		name := st.ID + " " + st.Spec.Name
		b := fetchFrames(t, ts, "/v1/jobs/"+st.ID+"/stream")
		if w, ok := parentJournalFrames[name]; !ok || w != [2]string{sum(b.bin), sum(b.jsonl)} {
			t.Errorf("%q: {%q, %q}, // %s, %d / %d bytes\n\tparent %v", name, sum(b.bin), sum(b.jsonl), st.Status, len(b.bin), len(b.jsonl), w)
		}
	}
	if len(jobs) != len(parentJournalFrames) {
		t.Errorf("%d jobs recovered, %d pinned", len(jobs), len(parentJournalFrames))
	}

	// The legacy key decoded into the contract: "target" piloted, a
	// "static" spec with no ratios is precise.
	for _, st := range jobs {
		switch st.Spec.Name {
		case "f-target":
			if want := (approx.Approximation{TargetError: 0.05, Pilot: true}); st.Spec.Approximation != want {
				t.Errorf("f-target decoded as %+v, want %+v", st.Spec.Approximation, want)
			}
		case "f-static-clients":
			if st.Spec.Approximation != (approx.Approximation{}) {
				t.Errorf("no-ratio static decoded as %+v, want precise", st.Spec.Approximation)
			}
		}
	}
}
