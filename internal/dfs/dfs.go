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
	"sort"
	"sync"

	"approxhadoop/internal/stats"
)

// DefaultBlockSize mirrors classic HDFS 64 MB blocks.
const DefaultBlockSize = 64 << 20

// Block describes one file block. Open returns a fresh reader over the
// block's bytes each call; the content must be identical across calls.
type Block struct {
	FileName string
	Index    int   // position within the file
	Size     int64 // byte size (exact for byte-backed, estimated for generated)
	Items    int64 // number of records, if known up front (0 = unknown)
	Replicas []string
	// open and lines run on compute-plane workers (map attempts read
	// blocks concurrently with the scheduler); implementations must be
	// pure functions of the block content.
	//
	//approx:pure
	open func() io.ReadCloser
	//approx:pure
	lines func(carry []byte, fn func(line []byte) error) ([]byte, error)
}

// Open returns a reader over the block's raw bytes: the byte-stream
// API (datagen, benchmarks, tests). Map tasks read records through
// Lines, which yields the same bytes line by line.
func (b *Block) Open() io.ReadCloser {
	return b.open()
}

// Lines is how records are read: it drives fn once per line of the
// block, in order, without materializing the block through an Open
// reader (no pipe, no goroutine, no scanner copy). The yielded slice has
// the trailing newline (and any preceding carriage return) stripped,
// exactly like bufio.ScanLines, and is only valid for the duration of
// the fn call — consumers that retain a line must copy it.
//
// carry, when non-nil, seeds the partial-line buffer a generated block
// needs when its generator writes a line in pieces, so a caller reading
// block after block can recycle it; the (possibly grown) buffer is
// returned for reuse. Nil is fine: one is allocated if ever needed.
// Blocks without a line backing (neither constructor builds one) return
// ErrNoLineBacking.
func (b *Block) Lines(carry []byte, fn func(line []byte) error) ([]byte, error) {
	if b.lines == nil {
		return carry, ErrNoLineBacking
	}
	return b.lines(carry, fn)
}

// ErrNoLineBacking is returned by Lines for blocks that only support
// byte-stream reading through Open.
var ErrNoLineBacking = fmt.Errorf("dfs: block has no line-yielding backing")

// dropCR strips one trailing carriage return, mirroring bufio.ScanLines
// so both block read paths observe identical record bytes.
func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// yieldByteLines walks an in-memory block's data, yielding each line as
// a subslice of data (zero copies; the final unterminated line, if any,
// is yielded too).
func yieldByteLines(data []byte, fn func(line []byte) error) error {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return fn(dropCR(data))
		}
		if err := fn(dropCR(data[:nl])); err != nil {
			return err
		}
		data = data[nl+1:]
	}
	return nil
}

// lineSplitWriter adapts a generator's byte stream into per-line fn
// calls: complete lines inside one Write are yielded as views of the
// incoming chunk; lines spanning chunk boundaries accumulate in the
// reusable carry buffer. It is the synchronous substitute for the
// pipe-goroutine-scanner chain of the Open path.
type lineSplitWriter struct {
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

// Servers returns the registered DataNode server IDs.
func (nn *NameNode) Servers() []string {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	out := make([]string, len(nn.servers))
	copy(out, nn.servers)
	return out
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

// Delete removes a file's metadata.
func (nn *NameNode) Delete(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[name]; !ok {
		return fmt.Errorf("dfs: file %q not found", name)
	}
	delete(nn.files, name)
	return nil
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

// NewByteBlock builds a block backed by an in-memory byte slice. items
// may be 0 if unknown.
func NewByteBlock(fileName string, index int, data []byte, items int64) *Block {
	return &Block{
		FileName: fileName,
		Index:    index,
		Size:     int64(len(data)),
		Items:    items,
		open:     func() io.ReadCloser { return nopCloser{bytes.NewReader(data)} },
		lines: func(carry []byte, fn func(line []byte) error) ([]byte, error) {
			return carry, yieldByteLines(data, fn)
		},
	}
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
// reproducible. estSize/estItems are metadata hints.
func NewGeneratedBlock(fileName string, index int, seed int64, estSize, estItems int64, gen LineGenerator) *Block {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	blockSeed := seed ^ (int64(index)+1)*mix
	return &Block{
		FileName: fileName,
		Index:    index,
		Size:     estSize,
		Items:    estItems,
		open: func() io.ReadCloser {
			pr, pw := io.Pipe()
			go func() {
				bw := bufio.NewWriterSize(pw, 64<<10)
				err := gen(index, stats.NewSource(blockSeed), bw)
				if err == nil {
					err = bw.Flush()
				}
				//lint:ignore errcheck CloseWithError is documented to always return nil
				pw.CloseWithError(err)
			}()
			return pr
		},
		// Lines runs the same generator synchronously into a line
		// splitter: no pipe, no per-read goroutine, no scanner
		// copy, no intermediate write buffer (generators emit whole
		// lines, so the splitter sees them directly), and the yielded
		// bytes are identical because both sinks see the exact byte
		// stream gen writes.
		lines: func(carry []byte, fn func(line []byte) error) ([]byte, error) {
			sw := lineSplitWriter{fn: fn, carry: carry[:0]}
			err := gen(index, stats.NewSource(blockSeed), &sw)
			if err == nil {
				err = sw.finish()
			}
			return sw.carry, err
		},
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
