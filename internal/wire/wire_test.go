package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func sampleJobFrame() *JobFrame {
	return &JobFrame{
		Seq:    7,
		T:      123.25,
		Status: "running",
		Estimates: []Estimate{
			{Key: "enwiki", Value: 1234.5, Epsilon: 12.5, Confidence: 0.95, Lo: 1222, Hi: 1247, Exact: false},
			{Key: "dewiki", Value: 88, Epsilon: 0, Confidence: 0.95, Lo: 88, Hi: 88, Exact: true},
			{Key: "frwiki", Value: 0, Epsilon: -1, Confidence: 0.95, Lo: 0, Hi: 0, Unbounded: true},
		},
	}
}

func sampleWindowFrame() *WindowFrame {
	return &WindowFrame{
		Seq: 4, Status: "running", Index: 4, Start: 20, End: 25,
		Records: 2500, Strata: 3, Processed: 3, Folded: 2500, Sampled: 640,
		Capacity: 256, KeepFrac: 0.25, Degraded: true, Latency: 0.012,
		Value: 4096.5, Epsilon: 41.25, Confidence: 0.95,
	}
}

func TestJobFrameRoundTrip(t *testing.T) {
	f := sampleJobFrame()
	f.Final = true
	buf := AppendJobFrame(nil, f)
	got, err := DecodeJobFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	// Canonicality: re-encoding the decoded value reproduces the bytes.
	if again := AppendJobFrame(nil, got); !bytes.Equal(again, buf) {
		t.Fatal("re-encode of decoded frame differs from original bytes")
	}
}

func TestWindowFrameRoundTrip(t *testing.T) {
	f := sampleWindowFrame()
	buf := AppendWindowFrame(nil, f)
	got, err := DecodeWindowFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	if again := AppendWindowFrame(nil, got); !bytes.Equal(again, buf) {
		t.Fatal("re-encode of decoded frame differs from original bytes")
	}
}

// Unlike JSON, the binary format carries NaN and infinities natively;
// the frame producer may apply the -1 sentinel for parity with the
// JSON view, but the format itself must not corrupt the bits.
func TestNonFiniteFloatsRoundTrip(t *testing.T) {
	f := &JobFrame{Status: "running", Estimates: []Estimate{{
		Key: "k", Value: math.NaN(), Epsilon: math.Inf(1), Lo: math.Inf(-1),
	}}}
	got, err := DecodeJobFrame(AppendJobFrame(nil, f))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	e := got.Estimates[0]
	if math.Float64bits(e.Value) != math.Float64bits(math.NaN()) {
		t.Fatalf("NaN bits corrupted: %x", math.Float64bits(e.Value))
	}
	if !math.IsInf(e.Epsilon, 1) || !math.IsInf(e.Lo, -1) {
		t.Fatalf("infinities corrupted: eps=%v lo=%v", e.Epsilon, e.Lo)
	}
}

func TestKindDispatch(t *testing.T) {
	jb := AppendJobFrame(nil, sampleJobFrame())
	wb := AppendWindowFrame(nil, sampleWindowFrame())
	if k, err := Kind(jb); err != nil || k != KindJob {
		t.Fatalf("Kind(job) = %v, %v", k, err)
	}
	if k, err := Kind(wb); err != nil || k != KindWindow {
		t.Fatalf("Kind(window) = %v, %v", k, err)
	}
	if _, err := DecodeJobFrame(wb); err == nil {
		t.Fatal("decoding a window payload as a job frame must fail")
	}
	if _, err := DecodeWindowFrame(jb); err == nil {
		t.Fatal("decoding a job payload as a window frame must fail")
	}
}

// Every malformed payload must be rejected, never misparsed: bad
// magic, bad version, every truncation point, and trailing garbage.
func TestDecodeRejectsCorruption(t *testing.T) {
	buf := AppendJobFrame(nil, sampleJobFrame())
	if _, err := DecodeJobFrame(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	bad := bytes.Clone(buf)
	bad[0] = '{'
	if _, err := DecodeJobFrame(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = bytes.Clone(buf)
	bad[1] = Version + 1
	if _, err := DecodeJobFrame(bad); err == nil {
		t.Fatal("future version accepted")
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeJobFrame(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(buf))
		}
	}
	if _, err := DecodeJobFrame(append(bytes.Clone(buf), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// Three spellings that decode to a frame whose encoding is some
	// other byte string: each breaks encode(decode(b)) == b.
	for _, kind := range []struct {
		name   string
		buf    []byte
		flags  int // offset of the frame's flags byte
		decode func([]byte) error
	}{
		{"job", buf, sampleJobFlagsAt, func(b []byte) error { _, err := DecodeJobFrame(b); return err }},
		{"window", AppendWindowFrame(nil, sampleWindowFrame()), sampleWindowFlagsAt, func(b []byte) error { _, err := DecodeWindowFrame(b); return err }},
	} {
		if err := kind.decode(kind.buf); err != nil {
			t.Fatalf("%s: sample frame rejected: %v", kind.name, err)
		}
		if kind.decode(respellSeq(kind.buf, kind.buf[3]|0x80, 0x00)) == nil {
			t.Errorf("%s: padded varint accepted", kind.name)
		}
		if kind.decode(respellSeq(kind.buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) == nil {
			t.Errorf("%s: seq 2^64-1 accepted (it does not fit an int)", kind.name)
		}
		bad := bytes.Clone(kind.buf)
		bad[kind.flags] |= 0x80
		if kind.decode(bad) == nil {
			t.Errorf("%s: undefined flag bit accepted", kind.name)
		}
	}
	bad = bytes.Clone(buf)
	bad[len(bad)-1] |= 0x04 // the last estimate's flags byte
	if _, err := DecodeJobFrame(bad); err == nil {
		t.Error("undefined estimate flag bit accepted")
	}
}

func TestLengthPrefixedFraming(t *testing.T) {
	var stream bytes.Buffer
	frames := [][]byte{
		AppendJobFrame(nil, sampleJobFrame()),
		AppendWindowFrame(nil, sampleWindowFrame()),
		AppendJobFrame(nil, &JobFrame{Seq: 9, Status: "done", Final: true}),
	}
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d bytes differ", i)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
	// A torn tail (partial header or body) must not look like EOF.
	torn := stream.Bytes()[:stream.Len()-3]
	r = bytes.NewReader(torn)
	var err error
	for err == nil {
		_, err = ReadFrame(r)
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("torn tail reported as clean EOF")
	}
	// An absurd length prefix is rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// The Encodes counter must move once per produced frame and not at
// all for reads — the observable half of the encode-once contract.
func TestEncodesCounter(t *testing.T) {
	buf := AppendJobFrame(nil, sampleJobFrame())
	before := Encodes()
	for i := 0; i < 50; i++ {
		if _, err := DecodeJobFrame(buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := Encodes(); got != before {
		t.Fatalf("decoding moved the encode counter by %d", got-before)
	}
	AppendJobFrame(buf[:0], sampleJobFrame())
	if got := Encodes(); got != before+1 {
		t.Fatalf("one encode moved the counter by %d", got-before)
	}
}
