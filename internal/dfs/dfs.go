// Package dfs is a block-oriented distributed file system model that
// stands in for HDFS. Files are split into blocks; a NameNode tracks
// block-to-server replica placement so the MapReduce scheduler can make
// locality-aware decisions, exactly the information Hadoop's JobTracker
// obtains from the HDFS NameNode.
//
// Two block backings exist: in-memory byte blocks (for tests and small
// inputs) and generator-backed blocks whose content is produced
// deterministically on every read from a seed. Generator backing is the
// repository's substitution for the paper's multi-terabyte Wikipedia
// datasets: a "12.5 TB year of access logs" is represented by its block
// descriptors, and any map task that reads a block streams freshly
// generated, deterministic bytes, so precise and approximate executions
// observe identical data without the storage footprint.
package dfs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"

	"approxhadoop/internal/stats"
)

// DefaultBlockSize mirrors classic HDFS 64 MB blocks.
const DefaultBlockSize = 64 << 20

// Block describes one file block. Its content must be identical on
// every read: a byte block's data, indexed by line once when the block
// is built, or a generated block's generator output for its seed.
type Block struct {
	FileName string
	Index    int   // position within the file
	Size     int64 // byte size (exact for byte-backed, estimated for generated)
	Items    int64 // number of records, if known up front (0 = unknown)
	Replicas []string

	// A block has one backing: data and its line index (NewByteBlock)
	// or gen seeded with seed (NewGeneratedBlock). A block with
	// neither has no line backing.
	data  []byte
	lines lineIndex
	// gen runs on compute-plane workers (map attempts read blocks
	// concurrently with the scheduler); it must be a pure function of
	// the block index and the seeded source.
	//
	//approx:pure
	gen  LineGenerator
	seed int64
}

// Open returns a reader over the block's raw bytes: the byte-stream
// API (datagen, benchmarks, tests). Map tasks read records through
// Sample, which yields the same bytes line by line.
func (b *Block) Open() io.ReadCloser {
	if b.gen == nil {
		return nopCloser{bytes.NewReader(b.data)}
	}
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		err := b.gen(b.Index, stats.NewSource(b.seed), bw)
		if err == nil {
			err = bw.Flush()
		}
		//lint:ignore errcheck CloseWithError is documented to always return nil
		pw.CloseWithError(err)
	}()
	return pr
}

// Lines drives fn once per line of the block, in order, without
// materializing the block through an Open reader (no pipe, no
// goroutine, no scanner copy). The yielded slice has the trailing
// newline (and any preceding carriage return) stripped, exactly like
// bufio.ScanLines, and is only valid for the duration of the fn call —
// consumers that retain a line must copy it. An error from fn ends the
// walk and is returned.
//
// carry, when non-nil, seeds the partial-line buffer a generated block
// needs when its generator writes a line in pieces, so a caller reading
// block after block can recycle it; the (possibly grown) buffer is
// returned for reuse. Nil is fine: one is allocated if ever needed.
// Blocks without a line backing (neither constructor builds one) return
// ErrNoLineBacking.
func (b *Block) Lines(carry []byte, fn func(line []byte) error) ([]byte, error) {
	if b.gen != nil {
		sw := lineSplitWriter{fn: fn, carry: carry[:0]}
		err := b.gen(b.Index, stats.NewSource(b.seed), &sw)
		if err == nil {
			err = sw.finish()
		}
		return sw.carry, err
	}
	if err := b.byteBacking(); err != nil {
		return carry, err
	}
	for i := range b.lines.count() {
		if err := fn(b.lines.line(b.data, i)); err != nil {
			return carry, err
		}
	}
	return carry, nil
}

// A LineSink receives the lines Block.Sample keeps. It is an interface
// rather than a func so that a reader can pass itself: a read then
// allocates no closure, and no counter a closure would capture.
//
//approx:pure
type LineSink interface {
	// Line is called for each kept line in block order: index is the
	// line's position in the block; units and bytes are the lines read
	// since the previous kept line, this one included, and their
	// counted bytes (len(line)+1 each, as if every line, the last
	// included, ended in one newline); line is valid only during the
	// call.
	Line(index, units, bytes int64, line []byte)
}

// Sample reads the block and hands sink the lines it keeps: every line
// when src is nil, and otherwise line i when the i-th draw of src is
// below the threshold keep — exactly when the i-th Float64 of src would
// be below the ratio that stats.DrawThreshold turned into keep. It
// returns the units and bytes read after the last kept line.
//
// A byte block draws its keep-mask 64 lines at a time and visits only
// the kept lines: the units and bytes of the lines between two kept
// ones come from its line index (with no source it visits every line,
// one unit of len(line)+1 bytes each). A generated block runs its
// generator into the line splitter and draws once per line.
//
//approx:hotpath
func (b *Block) Sample(src *stats.Source, keep int64, sink LineSink) (units, bytes int64, err error) {
	if b.gen != nil {
		g := &genSampler{sink: sink, src: src, keep: keep}
		g.sw.fn = g.line
		err := b.gen(b.Index, stats.NewSource(b.seed), &g.sw)
		if err == nil {
			err = g.sw.finish()
		}
		return g.units, g.bytes, err
	}
	if err := b.byteBacking(); err != nil {
		return 0, 0, err
	}
	x, n, prev := &b.lines, b.lines.count(), 0
	if src == nil {
		for i := range n {
			line := x.line(b.data, i)
			sink.Line(int64(i), 1, int64(len(line))+1, line)
		}
		return 0, 0, nil
	}
	for lo := 0; lo < n; lo += 64 {
		k := min(n-lo, 64)
		mask := ^uint64(0) >> (64 - k)
		if src != nil {
			mask = src.BelowMask(keep, k)
		}
		for ; mask != 0; mask &= mask - 1 {
			i := lo + bits.TrailingZeros64(mask)
			sink.Line(int64(i), int64(i+1-prev), x.bytes(prev, i+1), x.line(b.data, i))
			prev = i + 1
		}
	}
	return int64(n - prev), x.bytes(prev, n), nil
}

// byteBacking reports why a block that is not generated has no line
// index to read.
func (b *Block) byteBacking() error {
	switch {
	case b.lines.starts != nil:
		return nil
	case b.data != nil:
		return errBlockTooLarge
	default:
		return ErrNoLineBacking
	}
}

// ErrNoLineBacking is returned by Lines and Sample for blocks that only
// support byte-stream reading through Open.
var ErrNoLineBacking = fmt.Errorf("dfs: block has no line-yielding backing")

// errBlockTooLarge is returned by Lines and Sample for a byte block
// whose offsets do not fit its line index.
var errBlockTooLarge = fmt.Errorf("dfs: byte block over %d bytes has no line index", maxIndexed)

// maxIndexed is the largest byte block that is indexed by line: the
// index stores offsets up to one past the data as uint32.
const maxIndexed = math.MaxUint32 - 1

// lineIndex locates a byte block's lines. starts[i] is where line i
// begins and starts[n] is where a line after the last would begin, were
// the last line ended by a newline — so line i's counted bytes are
// starts[i+1]-starts[i], less one when bit i of cr is set: line i
// ended in a carriage return that dropCR strips. cr is nil when no line
// does. 4 bytes a line, and a bit when the block has carriage returns.
type lineIndex struct {
	starts []uint32
	cr     []uint64
}

// indexLines builds data's line index in one pass (after an exact
// count, so starts is allocated once).
func indexLines(data []byte) lineIndex {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	x := lineIndex{starts: make([]uint32, 0, n+1)}
	p := 0
	for p < len(data) {
		e := bytes.IndexByte(data[p:], '\n')
		if e < 0 {
			e = len(data)
		} else {
			e += p
		}
		if e > p && data[e-1] == '\r' {
			if x.cr == nil {
				x.cr = make([]uint64, (n+63)/64)
			}
			i := len(x.starts)
			x.cr[i/64] |= 1 << (i % 64)
		}
		x.starts = append(x.starts, uint32(p))
		p = e + 1
	}
	x.starts = append(x.starts, uint32(p))
	return x
}

// count returns the number of lines.
func (x *lineIndex) count() int { return len(x.starts) - 1 }

// line returns line i of data, newline and carriage return stripped.
func (x *lineIndex) line(data []byte, i int) []byte {
	end := x.starts[i+1] - 1
	if x.cr != nil {
		end -= uint32(x.cr[i/64] >> (i % 64) & 1)
	}
	return data[x.starts[i]:end]
}

// bytes returns the counted bytes of lines lo up to hi.
func (x *lineIndex) bytes(lo, hi int) int64 {
	n := int64(x.starts[hi] - x.starts[lo])
	if x.cr != nil {
		n -= int64(x.crs(lo, hi))
	}
	return n
}

// crs counts the lines from lo up to hi that end in a carriage return.
func (x *lineIndex) crs(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	wlo, whi := lo/64, (hi-1)/64
	first, last := ^uint64(0)<<(lo%64), ^uint64(0)>>(63-(hi-1)%64)
	if wlo == whi {
		return bits.OnesCount64(x.cr[wlo] & first & last)
	}
	c := bits.OnesCount64(x.cr[wlo]&first) + bits.OnesCount64(x.cr[whi]&last)
	for _, w := range x.cr[wlo+1 : whi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// dropCR strips one trailing carriage return, mirroring bufio.ScanLines
// so both block read paths observe identical record bytes.
func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// genSampler is Sample over a generated block: the line splitter's fn,
// counting each line and drawing for it.
type genSampler struct {
	sw           lineSplitWriter
	sink         LineSink
	src          *stats.Source
	keep         int64
	index        int64
	units, bytes int64
}

//approx:hotpath
func (g *genSampler) line(line []byte) error {
	g.units++
	g.bytes += int64(len(line)) + 1
	if g.src == nil || g.src.Below(g.keep) {
		g.sink.Line(g.index, g.units, g.bytes, line)
		g.units, g.bytes = 0, 0
	}
	g.index++
	return nil
}

// lineSplitWriter adapts a generator's byte stream into per-line fn
// calls: complete lines inside one Write are yielded as views of the
// incoming chunk; lines spanning chunk boundaries accumulate in the
// reusable carry buffer. It is the synchronous substitute for the
// pipe-goroutine-scanner chain of the Open path.
type lineSplitWriter struct {
	// fn is Lines' caller's or genSampler.line.
	//
	//approx:pure
	fn    func(line []byte) error
	carry []byte
}

func (w *lineSplitWriter) Write(p []byte) (int, error) {
	written := len(p)
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			w.carry = append(w.carry, p...)
			break
		}
		line := p[:nl]
		if len(w.carry) > 0 {
			w.carry = append(w.carry, line...)
			line = w.carry
		}
		if err := w.fn(dropCR(line)); err != nil {
			return 0, err
		}
		w.carry = w.carry[:0]
		p = p[nl+1:]
	}
	return written, nil
}

// finish yields the trailing unterminated line, if any.
func (w *lineSplitWriter) finish() error {
	if len(w.carry) == 0 {
		return nil
	}
	err := w.fn(dropCR(w.carry))
	w.carry = w.carry[:0]
	return err
}

// ID returns a human-readable block identifier.
func (b *Block) ID() string { return fmt.Sprintf("%s#%d", b.FileName, b.Index) }

// LiveReplicas returns the subset of b's replicas for which alive
// reports true — the replicas that survive server failures. Schedulers
// pass the cluster's liveness predicate so replica loss tracks server
// death (and recovery) on the virtual timeline.
func (b *Block) LiveReplicas(alive func(serverID string) bool) []string {
	var live []string
	for _, r := range b.Replicas {
		if alive(r) {
			live = append(live, r)
		}
	}
	return live
}

// Unrunnable reports whether b has registered replicas but none of
// them is alive: the block's data is gone and no map task can read it.
// A block with no registered replicas (never stored through a
// NameNode) is always runnable — there is no placement to lose.
func (b *Block) Unrunnable(alive func(serverID string) bool) bool {
	return len(b.Replicas) > 0 && len(b.LiveReplicas(alive)) == 0
}

// File is an immutable sequence of blocks registered with a NameNode.
type File struct {
	Name   string
	Blocks []*Block
}

// Size returns the total byte size of the file.
func (f *File) Size() int64 {
	var s int64
	for _, b := range f.Blocks {
		s += b.Size
	}
	return s
}

// NameNode maintains file metadata and block replica placement.
// Server liveness is the cluster engine's: schedulers pass its
// predicate to Block.Unrunnable.
type NameNode struct {
	mu          sync.RWMutex
	files       map[string]*File
	servers     []string
	replication int
	nextServer  int
}

// NewNameNode creates a NameNode managing the given DataNode servers
// with the given replication factor (clamped to [1, len(servers)]).
func NewNameNode(servers []string, replication int) *NameNode {
	if replication < 1 {
		replication = 1
	}
	if len(servers) > 0 && replication > len(servers) {
		replication = len(servers)
	}
	cp := make([]string, len(servers))
	copy(cp, servers)
	return &NameNode{
		files:       make(map[string]*File),
		servers:     cp,
		replication: replication,
	}
}

// Register places the blocks on DataNodes (round-robin with the
// replication factor, approximating HDFS placement) and records the
// file. It fails if a file with the same name already exists.
func (nn *NameNode) Register(f *File) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[f.Name]; ok {
		return fmt.Errorf("dfs: file %q already exists", f.Name)
	}
	for _, b := range f.Blocks {
		b.Replicas = b.Replicas[:0]
		for r := 0; r < nn.replication && len(nn.servers) > 0; r++ {
			b.Replicas = append(b.Replicas, nn.servers[nn.nextServer%len(nn.servers)])
			nn.nextServer++
		}
	}
	nn.files[f.Name] = f
	return nil
}

// File looks up a registered file by name.
func (nn *NameNode) File(name string) (*File, error) {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	f, ok := nn.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", name)
	}
	return f, nil
}

// List returns the names of all registered files in sorted order.
func (nn *NameNode) List() []string {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	names := make([]string, 0, len(nn.files))
	for n := range nn.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nopCloser adapts a Reader into a ReadCloser.
type nopCloser struct{ io.Reader }

func (nopCloser) Close() error { return nil }

// NewByteBlock builds a block backed by an in-memory byte slice and
// indexes its lines. items may be 0 if unknown.
func NewByteBlock(fileName string, index int, data []byte, items int64) *Block {
	b := &Block{FileName: fileName, Index: index, Size: int64(len(data)), Items: items, data: data}
	if uint64(len(data)) <= maxIndexed {
		b.lines = indexLines(data)
	}
	return b
}

// RandSource is the deterministic random source handed to block
// generators (satisfied by *math/rand.Rand). Generated blocks hand
// their generator a bare *stats.Source: the generators draw from it
// once to seed their own, so it never allocates its register.
type RandSource interface{ Int63() int64 }

// LineGenerator produces the lines of one generated block. It is
// invoked with a deterministic per-block RNG and must write the same
// content for the same seed on every call. The writer is buffered by
// the caller where buffering matters (the io.Reader path); generators
// should simply write whole lines.
type LineGenerator func(blockIndex int, r RandSource, w io.Writer) error

// NewGeneratedBlock builds a block whose content is produced on demand
// by gen, seeded with seed ^ blockIndex so blocks differ but are
// reproducible. estSize/estItems are metadata hints. Open runs gen
// behind a pipe; Lines and Sample run it synchronously into a line
// splitter (no goroutine, no scanner copy, no write buffer: generators
// emit whole lines), and both sinks see the byte stream gen writes.
func NewGeneratedBlock(fileName string, index int, seed int64, estSize, estItems int64, gen LineGenerator) *Block {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	return &Block{
		FileName: fileName,
		Index:    index,
		Size:     estSize,
		Items:    estItems,
		gen:      gen,
		seed:     seed ^ (int64(index)+1)*mix,
	}
}

// SplitText splits text content into line-aligned blocks of at most
// blockSize bytes (a line never spans blocks, like Hadoop text splits
// after record alignment) and returns the resulting file.
func SplitText(name string, content []byte, blockSize int) *File {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f := &File{Name: name}
	start := 0
	for start < len(content) {
		end := start + blockSize
		if end >= len(content) {
			end = len(content)
		} else {
			// Extend to the end of the current line.
			for end < len(content) && content[end-1] != '\n' {
				end++
			}
		}
		chunk := content[start:end]
		items := int64(bytes.Count(chunk, []byte{'\n'}))
		if len(chunk) > 0 && chunk[len(chunk)-1] != '\n' {
			items++
		}
		f.Blocks = append(f.Blocks, NewByteBlock(name, len(f.Blocks), chunk, items))
		start = end
	}
	return f
}

// GeneratedFile builds a file of nBlocks generator-backed blocks.
func GeneratedFile(name string, nBlocks int, seed, estBlockSize, estBlockItems int64, gen LineGenerator) *File {
	f := &File{Name: name}
	for i := 0; i < nBlocks; i++ {
		f.Blocks = append(f.Blocks, NewGeneratedBlock(name, i, seed, estBlockSize, estBlockItems, gen))
	}
	return f
}
