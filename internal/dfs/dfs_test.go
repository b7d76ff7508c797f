package dfs

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func readAll(t *testing.T, b *Block) string {
	t.Helper()
	rc := b.Open()
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read block: %v", err)
	}
	return string(data)
}

func TestSplitTextAlignment(t *testing.T) {
	content := []byte("aaa\nbbbb\ncc\ndddddd\ne\n")
	f := SplitText("t.txt", content, 6)
	if len(f.Blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(f.Blocks))
	}
	var rebuilt strings.Builder
	var items int64
	for i, b := range f.Blocks {
		s := readAll(t, b)
		if !strings.HasSuffix(s, "\n") {
			t.Errorf("block %d does not end at a line boundary: %q", i, s)
		}
		rebuilt.WriteString(s)
		items += b.Items
	}
	if rebuilt.String() != string(content) {
		t.Errorf("blocks do not reassemble the file")
	}
	if items != 5 {
		t.Errorf("item count %d, want 5", items)
	}
	if f.Size() != int64(len(content)) {
		t.Errorf("Size = %d, want %d", f.Size(), len(content))
	}
}

func TestSplitTextNoTrailingNewline(t *testing.T) {
	f := SplitText("t.txt", []byte("one\ntwo"), 100)
	if len(f.Blocks) != 1 || f.Blocks[0].Items != 2 {
		t.Errorf("want single block with 2 items, got %+v", f.Blocks)
	}
}

func TestSplitTextEmpty(t *testing.T) {
	f := SplitText("e.txt", nil, 10)
	if len(f.Blocks) != 0 {
		t.Errorf("empty content should yield no blocks")
	}
}

func TestSplitTextProperty(t *testing.T) {
	err := quick.Check(func(lines []string, bsSeed uint8) bool {
		var sb strings.Builder
		for _, l := range lines {
			sb.WriteString(strings.ReplaceAll(l, "\n", " "))
			sb.WriteByte('\n')
		}
		content := sb.String()
		bs := int(bsSeed)%64 + 1
		f := SplitText("p.txt", []byte(content), bs)
		var re strings.Builder
		for _, b := range f.Blocks {
			rc := b.Open()
			d, _ := io.ReadAll(rc)
			rc.Close()
			re.Write(d)
		}
		return re.String() == content
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestGeneratedBlockDeterministic(t *testing.T) {
	gen := func(idx int, r RandSource, w io.Writer) error {
		for i := 0; i < 10; i++ {
			if _, err := io.WriteString(w, strings.Repeat("x", int(r.Int63()%5)+1)+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
	b := NewGeneratedBlock("g.txt", 3, 42, 0, 10, gen)
	first := readAll(t, b)
	second := readAll(t, b)
	if first != second {
		t.Error("generated block content must be identical across reads")
	}
	other := NewGeneratedBlock("g.txt", 4, 42, 0, 10, gen)
	if readAll(t, other) == first {
		t.Error("different block indices should generate different content")
	}
}

func TestGeneratedFile(t *testing.T) {
	f := GeneratedFile("gf", 5, 7, 100, 10, func(idx int, r RandSource, w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	})
	if len(f.Blocks) != 5 {
		t.Fatalf("want 5 blocks, got %d", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Index != i || b.Items != 10 || b.Size != 100 {
			t.Errorf("block %d metadata wrong: %+v", i, b)
		}
		if got := readAll(t, b); got != "hello\n" {
			t.Errorf("block %d content %q", i, got)
		}
	}
}

func TestNameNodePlacement(t *testing.T) {
	nn := NewNameNode([]string{"s1", "s2", "s3"}, 2)
	f := SplitText("f.txt", []byte("a\nb\nc\nd\ne\nf\n"), 2)
	if err := nn.Register(f); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas, want 2", b.Index, len(b.Replicas))
		}
		if b.Replicas[0] == b.Replicas[1] {
			// Round-robin adjacent placement can never duplicate with 3 servers.
			t.Errorf("block %d replicas identical: %v", b.Index, b.Replicas)
		}
	}
	got, err := nn.File("f.txt")
	if err != nil || got != f {
		t.Errorf("File lookup failed: %v", err)
	}
	if err := nn.Register(f); err == nil {
		t.Error("duplicate registration should fail")
	}
	if _, err := nn.File("missing"); err == nil {
		t.Error("missing file lookup should fail")
	}
	if names := nn.List(); len(names) != 1 || names[0] != "f.txt" {
		t.Errorf("List = %v", names)
	}
}

func TestNameNodeReplicationClamp(t *testing.T) {
	nn := NewNameNode([]string{"only"}, 5)
	f := SplitText("f", []byte("x\n"), 10)
	if err := nn.Register(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks[0].Replicas) != 1 {
		t.Errorf("replication should clamp to server count")
	}
}

func TestBlockID(t *testing.T) {
	b := NewByteBlock("data.log", 7, []byte("x"), 1)
	if b.ID() != "data.log#7" {
		t.Errorf("ID = %q", b.ID())
	}
}

// TestReplicaLiveness covers the failure-model queries: live-replica
// filtering and the unrunnable condition under a liveness predicate.
func TestReplicaLiveness(t *testing.T) {
	nn := NewNameNode([]string{"s0", "s1", "s2"}, 2)
	f := SplitText("r.txt", []byte("a\nb\nc\nd\n"), 2)
	if err := nn.Register(f); err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	if len(b.Replicas) != 2 {
		t.Fatalf("expected 2 replicas, got %v", b.Replicas)
	}
	down := map[string]bool{}
	alive := func(id string) bool { return !down[id] }
	if got := b.LiveReplicas(alive); len(got) != 2 {
		t.Errorf("all replicas should be live initially: %v", got)
	}
	down[b.Replicas[0]] = true
	if got := b.LiveReplicas(alive); len(got) != 1 || got[0] != b.Replicas[1] {
		t.Errorf("one replica should survive: %v", got)
	}
	if b.Unrunnable(alive) {
		t.Error("block with a live replica must stay runnable")
	}
	down[b.Replicas[1]] = true
	if !b.Unrunnable(alive) {
		t.Error("block with no live replicas must be unrunnable")
	}
	delete(down, b.Replicas[1])
	if b.Unrunnable(alive) {
		t.Error("recovery must restore the replica")
	}
	// A block never registered with a NameNode has no placement to
	// lose and is always runnable.
	loose := NewByteBlock("loose", 0, []byte("x"), 1)
	if loose.Unrunnable(func(string) bool { return false }) {
		t.Error("replica-less block must always be runnable")
	}
}

// scanLines reads a block through Open + bufio.ScanLines: the record
// tokenization Lines must reproduce.
func scanLines(t *testing.T, b *Block) []string {
	t.Helper()
	rc := b.Open()
	defer rc.Close()
	s := bufio.NewScanner(rc)
	s.Buffer(make([]byte, 64<<10), 16<<20)
	var lines []string
	for s.Scan() {
		lines = append(lines, s.Text())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan block: %v", err)
	}
	return lines
}

// yieldLines reads a block through the record-yielding fast path,
// copying each view (the contract: views are only valid inside fn).
func yieldLines(t *testing.T, b *Block, carry []byte) []string {
	t.Helper()
	var lines []string
	_, err := b.Lines(carry, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("yield block lines: %v", err)
	}
	return lines
}

// TestLinesMatchesScannerByteBlocks proves the zero-copy line yielder
// tokenizes byte blocks exactly like bufio.ScanLines, including empty
// lines, carriage returns, and a final unterminated line.
func TestLinesMatchesScannerByteBlocks(t *testing.T) {
	cases := []string{
		"",
		"\n",
		"a\nb\nc\n",
		"a\nb\nc",               // no trailing newline
		"one\r\ntwo\r\nthree\r", // CRLF endings plus stray trailing CR
		"\n\nmid\n\n",           // empty lines
		"solo",
		strings.Repeat("x", 70000) + "\nshort\n", // longer than one scanner buffer
	}
	for i, content := range cases {
		b := NewByteBlock("t.txt", i, []byte(content), 0)
		want := scanLines(t, b)
		got := yieldLines(t, b, nil)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d yielded lines, scanner saw %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d line %d: yielded %q, scanner %q", i, j, got[j], want[j])
			}
		}
	}
}

// TestLinesMatchesScannerGeneratedBlocks proves the synchronous
// generator fast path observes the identical byte stream as the
// pipe+scanner Open path, for content that spans write chunks and ends
// without a newline.
func TestLinesMatchesScannerGeneratedBlocks(t *testing.T) {
	gen := func(idx int, r RandSource, w io.Writer) error {
		for i := 0; i < 500; i++ {
			// Vary line lengths around the splitter's chunk handling,
			// with some empty and some CR-bearing lines.
			n := int(r.Int63() % 200)
			if _, err := io.WriteString(w, strings.Repeat("g", n)); err != nil {
				return err
			}
			if i%17 == 0 {
				if _, err := io.WriteString(w, "\r"); err != nil {
					return err
				}
			}
			if i != 499 { // final line unterminated
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
		}
		return nil
	}
	b := NewGeneratedBlock("gen.txt", 3, 42, 0, 500, gen)
	want := scanLines(t, b)
	// Seed the carry with a recycled dirty buffer: reuse must not leak
	// stale bytes into yielded lines.
	carry := []byte("stale-bytes-from-previous-block")
	got := yieldLines(t, b, carry)
	if len(got) != len(want) {
		t.Fatalf("%d yielded lines, scanner saw %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("line %d: yielded %q, scanner %q", j, got[j], want[j])
		}
	}
}

// TestLinesNoBacking checks a block built by neither constructor says
// so instead of dereferencing its nil backing.
func TestLinesNoBacking(t *testing.T) {
	b := &Block{FileName: "opaque", Index: 0}
	if _, err := b.Lines(nil, func([]byte) error { return nil }); err != ErrNoLineBacking {
		t.Fatalf("Lines on opaque block returned %v, want ErrNoLineBacking", err)
	}
}
