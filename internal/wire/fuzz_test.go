package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// The decoders read bytes from the network (approxctl, loadgen) and,
// in the daemon, the frames it rendered itself. Whatever they accept
// must be canonical: it re-encodes to the identical bytes, and those
// decode to an equal frame. They must never panic.

// sameFrame is reflect.DeepEqual, except that a frame carrying a NaN
// (never equal to itself) is compared as printed.
func sameFrame(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// Where the sample frames keep their flags byte: after the header, a
// one-byte Seq, (job only) T, and the length-prefixed "running".
const (
	sampleJobFlagsAt    = 3 + 1 + 8 + 1 + len("running")
	sampleWindowFlagsAt = 3 + 1 + 1 + len("running")
)

// respellSeq replaces a sample payload's one-byte Seq with seq.
func respellSeq(payload []byte, seq ...byte) []byte {
	return append(append(bytes.Clone(payload[:3]), seq...), payload[4:]...)
}

// seedDefects adds the three spellings the decoders once accepted: a
// padded varint, a count past any int, an undefined flag bit at flags.
func seedDefects(f *testing.F, payload []byte, flags int) {
	f.Add(respellSeq(payload, payload[3]|0x80, 0x00))
	f.Add(respellSeq(payload, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	bad := bytes.Clone(payload)
	bad[flags] |= 0x80
	f.Add(bad)
}

func FuzzDecodeJobFrame(f *testing.F) {
	final := sampleJobFrame()
	final.Final = true
	for _, frame := range []*JobFrame{sampleJobFrame(), final, {Seq: 9, Status: "done", Final: true}, {}} {
		f.Add(AppendJobFrame(nil, frame))
	}
	sample := AppendJobFrame(nil, sampleJobFrame())
	seedDefects(f, sample, sampleJobFlagsAt)
	// An estimate count larger than the payload that claims it.
	f.Add(append(AppendJobFrame(nil, &JobFrame{Status: "running"})[:sampleJobFlagsAt+1], 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeJobFrame(payload)
		if err != nil {
			return
		}
		again := AppendJobFrame(nil, got)
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n got %x\nfrom %x", again, payload)
		}
		back, err := DecodeJobFrame(again)
		if err != nil || !sameFrame(back, got) {
			t.Fatalf("re-encoded payload decodes to %+v, %v; want %+v", back, err, got)
		}
	})
}

func FuzzDecodeWindowFrame(f *testing.F) {
	neg := sampleWindowFrame()
	neg.Index, neg.Records, neg.Final, neg.Unbounded = -3, -1, true, true
	for _, frame := range []*WindowFrame{sampleWindowFrame(), neg, {}} {
		f.Add(AppendWindowFrame(nil, frame))
	}
	seedDefects(f, AppendWindowFrame(nil, sampleWindowFrame()), sampleWindowFlagsAt)
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeWindowFrame(payload)
		if err != nil {
			return
		}
		again := AppendWindowFrame(nil, got)
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n got %x\nfrom %x", again, payload)
		}
		back, err := DecodeWindowFrame(again)
		if err != nil || !sameFrame(back, got) {
			t.Fatalf("re-encoded payload decodes to %+v, %v; want %+v", back, err, got)
		}
	})
}
