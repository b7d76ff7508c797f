package jobserver

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJFloatRoundTrip: the journal's float encoding must survive the
// values encoding/json rejects — estimator error bounds are
// legitimately NaN or infinite.
func TestJFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, 5e-324} {
		b, err := json.Marshal(JFloat(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back JFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		got := float64(back)
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN round-tripped to %v via %s", got, b)
			}
			continue
		}
		//lint:ignore nofloateq the round-trip must be bit-exact, not approximately equal
		if got != v {
			t.Errorf("%v round-tripped to %v via %s", v, got, b)
		}
	}
	if _, err := json.Marshal(math.NaN()); err == nil {
		t.Fatal("sanity: encoding/json accepted a bare NaN; JFloat is redundant")
	}
}

// TestJFloatMatchesEncodingJSON holds JFloat's own float formatting to
// encoding/json's, byte for byte, on the values where its rules change
// branch, and pins the quoted forms of the values it rejects.
func TestJFloatMatchesEncodingJSON(t *testing.T) {
	finite := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, -7, 1 << 53, 123456789, 0.1, 1.0 / 3, -2.25,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-10, 2e-100,
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1.25e22,
		math.MaxFloat64, -math.MaxFloat64,
	}
	bits := uint64(20261017)
	for i := 0; i < 2000; i++ {
		bits = bits*6364136223846793005 + 1442695040888963407
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	for _, v := range finite {
		got, err := JFloat(v).MarshalJSON()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("encoding/json on %v: %v", v, err)
		}
		if string(got) != string(want) {
			t.Errorf("JFloat(%v) = %s, encoding/json %s", v, got, want)
		}
	}
	for v, want := range map[float64]string{math.Inf(1): `"+Inf"`, math.Inf(-1): `"-Inf"`} {
		if got, _ := JFloat(v).MarshalJSON(); string(got) != want {
			t.Errorf("JFloat(%v) = %s, want %s", v, got, want)
		}
	}
	if got, _ := JFloat(math.NaN()).MarshalJSON(); string(got) != `"NaN"` {
		t.Errorf("JFloat(NaN) = %s, want \"NaN\"", got)
	}
	if n := int(testing.AllocsPerRun(100, func() { _, _ = JFloat(0.123456789).MarshalJSON() })); n != 1 {
		t.Errorf("MarshalJSON of a finite float: %v allocations, want 1", n)
	}
}

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.jsonl")
}

func submitRec(id, name string, seed int64) JournalRecord {
	spec := JobSpec{Name: name, App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: seed}
	return JournalRecord{Op: JournalSubmit, ID: id, Spec: &spec, SubmitVT: 1.5}
}

// TestJournalAppendReopen: records written and committed come back
// verbatim from a reopen.
func TestJournalAppendReopen(t *testing.T) {
	path := tempJournal(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []JournalRecord{
		submitRec("job-0000", "alpha", 3),
		{Op: JournalAdmit, ID: "job-0000", StartVT: 2},
		{Op: JournalDone, ID: "job-0000", Status: StatusDone, SubmitVT: 1.5, StartVT: 2, EndVT: 9},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTailTruncated: a partial final line — the signature
// of a crash mid-append — is dropped and truncated so the next append
// starts on a clean boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec("job-0000", "whole", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"job-00`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "job-0000" {
		t.Fatalf("recovered %+v, want the one whole record", recs)
	}
	if err := j2.Append(JournalRecord{Op: JournalAdmit, ID: "job-0000"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("after truncate+append got %d records, want 2 (tail not truncated?)", len(recs))
	}
}

// TestJournalInteriorCorruptionRejected: a corrupt record with more
// data after it cannot be a torn tail; silently skipping it would
// un-journal acknowledged jobs, so opening must fail loudly.
func TestJournalInteriorCorruptionRejected(t *testing.T) {
	path := tempJournal(t)
	lines := []string{
		`{"op":"submit","id":"job-0000","spec":{"app":"total-size"}}`,
		`{"op":"adm GARBAGE`,
		`{"op":"done","id":"job-0000","status":"done"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("interior corruption opened without error")
	}
}

// TestJournalAutoCommitBatching: syncEvery bounds the dirty window —
// the syncEvery-th append auto-commits, and Commit is a no-op when
// clean.
func TestJournalAutoCommitBatching(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syncEvery - 1 {
		if err := j.Append(JournalRecord{Op: JournalAdmit, ID: fmt.Sprintf("job-%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if j.dirty != syncEvery-1 {
		t.Fatalf("dirty = %d after %d appends, want %d", j.dirty, syncEvery-1, syncEvery-1)
	}
	if err := j.Append(JournalRecord{Op: JournalAdmit, ID: fmt.Sprintf("job-%04d", syncEvery-1)}); err != nil {
		t.Fatal(err)
	}
	if j.dirty != 0 {
		t.Fatalf("dirty = %d after append %d, want 0 (auto-commit)", j.dirty, syncEvery)
	}
	if err := j.Commit(); err != nil {
		t.Fatalf("clean commit: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCloseIdempotent: Service.Close and daemon teardown may
// both close the journal; the second call must be a harmless no-op.
func TestJournalCloseIdempotent(t *testing.T) {
	j, _, err := OpenJournal(tempJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalAdmit, ID: "job-0000"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := j.Append(JournalRecord{Op: JournalAdmit, ID: "job-0001"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}
