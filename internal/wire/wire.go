// Package wire defines the frames approxd streams — a job's snapshots
// with their narrowing intervals, a continuous query's windows — and
// their two renderings: the compact binary payload, which is the form
// the daemon keeps, and the JSON line decoded from it, whose field
// names are the struct tags below.
//
// A payload is encoded exactly once per sequence number by the producer
// and then shared, as raw bytes, across every subscriber of a job or
// stream:
//
//   - Canonical: one valid encoding per frame value. Encoding is a
//     single code path; decoding rejects trailing bytes, padded
//     varints, undefined flag bits and counts that do not fit a
//     non-negative int, so encode(decode(b)) == b and byte comparison
//     is semantic comparison. That is what lets recovery and
//     shard-count experiments diff streams with cmp/bytes.Equal, and
//     lets the daemon render JSON by decoding its own bytes.
//   - Self-describing: every payload starts with magic, version, and a
//     frame kind, so a reader on the wrong endpoint fails loudly
//     instead of misparsing.
//   - Length-prefixed: stream transport is a 4-byte little-endian
//     payload length followed by the payload, so readers never need to
//     parse ahead to find frame boundaries.
//
// Scalars: non-negative counters use uvarint, signed counters use
// zigzag varint, floats are the 8 little-endian bytes of their IEEE754
// bit pattern (NaN/Inf round-trip losslessly; the JSON -1 sentinel
// convention is applied by the producer before encoding, because the
// JSON rendering cannot carry them), strings are uvarint length plus
// bytes, and booleans pack into one flags byte per struct.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

const (
	// Magic tags every payload; it deliberately differs from '{' so a
	// JSON reader pointed at a binary stream fails immediately.
	Magic = 0xA9
	// Version of the payload layout.
	Version = 1

	// KindJob is a batch-job snapshot frame (JobFrame).
	KindJob = 0x01
	// KindWindow is a streaming-plane window frame (WindowFrame).
	KindWindow = 0x02
)

// The flag bits each flags byte defines; a decoder rejects the rest.
const (
	jobFlags      = 0x01
	estimateFlags = 0x03
	windowFlags   = 0x1F
)

// MaxFrameSize bounds a length-prefixed payload on the read side: far
// above any real frame, far below a memory-exhaustion header.
const MaxFrameSize = 16 << 20

// ContentType is the negotiated media type of a binary frame stream.
// Clients request it via the Accept header; servers that honor it echo
// it back as Content-Type, and fall back to application/jsonl.
const ContentType = "application/x-approx-frame"

// encodes counts Append*Frame calls process-wide. The encode-once
// multicast contract is observable: deliveries to any number of
// subscribers must not move this counter, only frame production may.
var encodes atomic.Uint64

// Encodes reports the number of binary frame encodes performed by this
// process. Tests and benchmarks diff it around a fan-out to prove
// O(1) encodes per sequence number regardless of subscriber count.
func Encodes() uint64 { return encodes.Load() }

// Estimate is one key's value and confidence interval.
type Estimate struct {
	Key        string  `json:"key"`
	Value      float64 `json:"value"`
	Epsilon    float64 `json:"epsilon"` // CI half-width; -1 when unbounded
	Confidence float64 `json:"confidence"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Exact      bool    `json:"exact,omitempty"`
	Unbounded  bool    `json:"unbounded,omitempty"`
}

// JobFrame is one frame of a job's stream. Seq is the frame's position
// in the job's snapshot sequence; a client that loses its connection
// reconnects with ?from=<lastSeq+1> and resumes without duplicates,
// including across a daemon restart.
type JobFrame struct {
	Seq       int        `json:"seq"`
	T         float64    `json:"t"` // virtual seconds since job start
	Status    string     `json:"status"`
	Final     bool       `json:"final,omitempty"`
	Estimates []Estimate `json:"estimates"`
}

// WindowFrame is one frame of a continuous query's watch stream: one
// closed window's estimate, with the same Seq-resume contract.
type WindowFrame struct {
	Seq    int    `json:"seq"`
	Status string `json:"status"`
	Final  bool   `json:"final,omitempty"`

	Index      int64   `json:"index"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Records    int64   `json:"records"`
	Strata     int     `json:"strata"`
	Processed  int     `json:"processed"`
	Folded     int64   `json:"folded"`
	Sampled    int64   `json:"sampled"`
	Capacity   int     `json:"capacity"`
	KeepFrac   float64 `json:"keepFrac"`
	Degraded   bool    `json:"degraded,omitempty"`
	Partial    bool    `json:"partial,omitempty"`
	Exact      bool    `json:"exact,omitempty"`
	Latency    float64 `json:"latencySecs"`
	Value      float64 `json:"value"`
	Epsilon    float64 `json:"epsilon"` // CI half-width; -1 when unbounded
	Confidence float64 `json:"confidence"`
	Unbounded  bool    `json:"unbounded,omitempty"`
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendJobFrame appends the canonical encoding of f to dst and
// returns the extended slice. It allocates only when dst lacks
// capacity, so a producer reusing a scratch buffer encodes
// allocation-free except for the final retained copy.
func AppendJobFrame(dst []byte, f *JobFrame) []byte {
	encodes.Add(1)
	dst = append(dst, Magic, Version, KindJob)
	dst = binary.AppendUvarint(dst, uint64(f.Seq))
	dst = appendFloat(dst, f.T)
	dst = appendString(dst, f.Status)
	var flags byte
	if f.Final {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(f.Estimates)))
	for i := range f.Estimates {
		e := &f.Estimates[i]
		dst = appendString(dst, e.Key)
		dst = appendFloat(dst, e.Value)
		dst = appendFloat(dst, e.Epsilon)
		dst = appendFloat(dst, e.Confidence)
		dst = appendFloat(dst, e.Lo)
		dst = appendFloat(dst, e.Hi)
		var ef byte
		if e.Exact {
			ef |= 1
		}
		if e.Unbounded {
			ef |= 2
		}
		dst = append(dst, ef)
	}
	return dst
}

// AppendWindowFrame appends the canonical encoding of f to dst.
func AppendWindowFrame(dst []byte, f *WindowFrame) []byte {
	encodes.Add(1)
	dst = append(dst, Magic, Version, KindWindow)
	dst = binary.AppendUvarint(dst, uint64(f.Seq))
	dst = appendString(dst, f.Status)
	var flags byte
	if f.Final {
		flags |= 1
	}
	if f.Degraded {
		flags |= 2
	}
	if f.Partial {
		flags |= 4
	}
	if f.Exact {
		flags |= 8
	}
	if f.Unbounded {
		flags |= 16
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, f.Index)
	dst = appendFloat(dst, f.Start)
	dst = appendFloat(dst, f.End)
	dst = binary.AppendVarint(dst, f.Records)
	dst = binary.AppendUvarint(dst, uint64(f.Strata))
	dst = binary.AppendUvarint(dst, uint64(f.Processed))
	dst = binary.AppendVarint(dst, f.Folded)
	dst = binary.AppendVarint(dst, f.Sampled)
	dst = binary.AppendUvarint(dst, uint64(f.Capacity))
	dst = appendFloat(dst, f.KeepFrac)
	dst = appendFloat(dst, f.Latency)
	dst = appendFloat(dst, f.Value)
	dst = appendFloat(dst, f.Epsilon)
	dst = appendFloat(dst, f.Confidence)
	return dst
}

// reader is a bounds-checked cursor over one payload.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed %s at offset %d", what, r.pos)
	}
}

func (r *reader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

// flags reads one flags byte, rejecting bits outside defined.
func (r *reader) flags(what string, defined byte) byte {
	v := r.byte(what)
	if v&^defined != 0 {
		r.fail(what)
		return 0
	}
	return v
}

// uvarint reads a minimally encoded uvarint. A multi-byte varint ending
// in a zero group re-encodes shorter than it was read, so accepting it
// would leave two byte strings for one frame.
func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 || (n > 1 && r.b[r.pos+n-1] == 0) {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

// varint reads a minimally encoded zigzag varint.
func (r *reader) varint(what string) int64 {
	u := r.uvarint(what)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a uvarint that has to fit a non-negative int.
func (r *reader) count(what string) int {
	v := r.uvarint(what)
	if v > math.MaxInt {
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *reader) float(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.pos:]))
	r.pos += 8
	return v
}

func (r *reader) string(what string) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// header validates magic/version and returns the frame kind.
func (r *reader) header() byte {
	m := r.byte("magic")
	v := r.byte("version")
	k := r.byte("kind")
	if r.err != nil {
		return 0
	}
	if m != Magic {
		r.err = fmt.Errorf("wire: bad magic 0x%02x (want 0x%02x)", m, Magic)
		return 0
	}
	if v != Version {
		r.err = fmt.Errorf("wire: unsupported version %d (want %d)", v, Version)
		return 0
	}
	return k
}

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(r.b)-r.pos)
	}
	return nil
}

// Kind inspects a payload's header and reports its frame kind without
// decoding the body.
func Kind(payload []byte) (byte, error) {
	r := &reader{b: payload}
	k := r.header()
	if r.err != nil {
		return 0, r.err
	}
	return k, nil
}

// DecodeJobFrame decodes one canonical KindJob payload. The whole
// payload must be consumed; trailing bytes are an error. Estimates is
// never nil: a frame that carries none renders "estimates":[] in JSON,
// as its producer's did.
func DecodeJobFrame(payload []byte) (*JobFrame, error) {
	r := &reader{b: payload}
	if k := r.header(); r.err == nil && k != KindJob {
		return nil, fmt.Errorf("wire: kind 0x%02x is not a job frame", k)
	}
	f := &JobFrame{}
	f.Seq = r.count("seq")
	f.T = r.float("t")
	f.Status = r.string("status")
	flags := r.flags("flags", jobFlags)
	f.Final = flags&1 != 0
	n := r.count("estimate count")
	if r.err == nil && n > len(payload) {
		// Each estimate is >1 byte, so a count beyond the payload length
		// is corrupt; reject before allocating.
		return nil, fmt.Errorf("wire: estimate count %d exceeds payload", n)
	}
	if r.err == nil {
		f.Estimates = make([]Estimate, n)
		for i := range f.Estimates {
			e := &f.Estimates[i]
			e.Key = r.string("estimate key")
			e.Value = r.float("estimate value")
			e.Epsilon = r.float("estimate epsilon")
			e.Confidence = r.float("estimate confidence")
			e.Lo = r.float("estimate lo")
			e.Hi = r.float("estimate hi")
			ef := r.flags("estimate flags", estimateFlags)
			e.Exact = ef&1 != 0
			e.Unbounded = ef&2 != 0
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeWindowFrame decodes one canonical KindWindow payload.
func DecodeWindowFrame(payload []byte) (*WindowFrame, error) {
	r := &reader{b: payload}
	if k := r.header(); r.err == nil && k != KindWindow {
		return nil, fmt.Errorf("wire: kind 0x%02x is not a window frame", k)
	}
	f := &WindowFrame{}
	f.Seq = r.count("seq")
	f.Status = r.string("status")
	flags := r.flags("flags", windowFlags)
	f.Final = flags&1 != 0
	f.Degraded = flags&2 != 0
	f.Partial = flags&4 != 0
	f.Exact = flags&8 != 0
	f.Unbounded = flags&16 != 0
	f.Index = r.varint("index")
	f.Start = r.float("start")
	f.End = r.float("end")
	f.Records = r.varint("records")
	f.Strata = r.count("strata")
	f.Processed = r.count("processed")
	f.Folded = r.varint("folded")
	f.Sampled = r.varint("sampled")
	f.Capacity = r.count("capacity")
	f.KeepFrac = r.float("keepFrac")
	f.Latency = r.float("latency")
	f.Value = r.float("value")
	f.Epsilon = r.float("epsilon")
	f.Confidence = r.float("confidence")
	if err := r.finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFrame writes one length-prefixed payload: 4-byte little-endian
// length, then the payload bytes.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", len(payload), MaxFrameSize)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload. io.EOF at a frame
// boundary is returned as-is (clean end of stream); a partial header
// or body reports io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wire: torn frame header: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, MaxFrameSize)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wire: torn frame body: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return payload, nil
}

// ReadJobFrames is the client side of a job's frame stream: it reads r
// to its end — length-prefixed binary payloads when framed, JSON lines
// otherwise — and hands every frame to fn. It returns nil at a clean
// end of stream and stops at the first error, fn's included.
func ReadJobFrames(r io.Reader, framed bool, fn func(*JobFrame) error) error {
	if framed {
		br := bufio.NewReader(r)
		for {
			payload, err := ReadFrame(br)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			f, err := DecodeJobFrame(payload)
			if err != nil {
				return err
			}
			if err := fn(f); err != nil {
				return err
			}
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		f := &JobFrame{}
		if err := json.Unmarshal(sc.Bytes(), f); err != nil {
			return fmt.Errorf("wire: bad stream frame %q: %w", sc.Text(), err)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return sc.Err()
}
