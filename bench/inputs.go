package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/workload"
)

// Inputs are generated from the run's seed and materialised to byte
// blocks during set-up, so the timed phase measures the framework and
// not the line generator (which is 48% of a precise job and 75% of a
// 10%-sampled one when blocks are generated lazily; see README.md).

// materialise reads every block of a generated file through Open and
// returns the same content as in-memory byte blocks.
func materialise(f *dfs.File) (*dfs.File, error) {
	out := &dfs.File{Name: f.Name, Blocks: make([]*dfs.Block, 0, len(f.Blocks))}
	for i, b := range f.Blocks {
		rc := b.Open()
		data, err := io.ReadAll(rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("materialise %s: %w", b.ID(), err)
		}
		out.Blocks = append(out.Blocks, dfs.NewByteBlock(f.Name, i, data, b.Items))
	}
	return out, nil
}

// accessLog is the Fig 7 access log descriptor for a run seed.
func accessLog(cfg *runConfig) workload.AccessLog {
	gen := workload.DefaultAccessLog()
	gen.Blocks, gen.LinesPerBlock = cfg.sz.accessBlocks, cfg.sz.accessLines
	gen.Seed = cfg.seed*7919 + 2
	return gen
}

// webLog is the stream workload's input descriptor for a run seed.
func webLog(cfg *runConfig) workload.WebLog {
	gen := workload.DefaultWebLog()
	gen.Blocks, gen.LinesPerBlock = cfg.sz.webBlocks, cfg.sz.webLines
	gen.Seed = cfg.seed*7919 + 3
	return gen
}

// eachLine calls fn for every line of every block of f.
func eachLine(f *dfs.File, fn func(line []byte)) error {
	for _, b := range f.Blocks {
		if _, err := b.Lines(nil, func(line []byte) error {
			fn(line)
			return nil
		}); err != nil {
			return fmt.Errorf("read %s: %w", b.ID(), err)
		}
	}
	return nil
}

// tabField returns the idx-th tab-separated field of line (nil when the
// line has fewer fields). The oracle parses lines itself instead of
// calling the program's parsers.
func tabField(line []byte, idx int) []byte {
	for ; idx > 0; idx-- {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return nil
		}
		line = line[i+1:]
	}
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		line = line[:i]
	}
	return line
}

// keyCounts is the reference answer of a counting query: a plain map
// count over the materialised lines, its keys by descending count, and
// the number of records counted.
type keyCounts struct {
	count   map[string]float64
	heavy   []string // keys by descending count, ties by key
	records int64
}

// countField counts the lines of f by their idx-th field.
func countField(f *dfs.File, idx int) (*keyCounts, error) {
	kc := &keyCounts{count: map[string]float64{}}
	err := eachLine(f, func(line []byte) {
		if k := tabField(line, idx); k != nil {
			kc.count[string(k)]++
			kc.records++
		}
	})
	if err != nil {
		return nil, err
	}
	kc.heavy = make([]string, 0, len(kc.count))
	for k := range kc.count {
		kc.heavy = append(kc.heavy, k)
	}
	sort.Slice(kc.heavy, func(i, j int) bool {
		a, b := kc.heavy[i], kc.heavy[j]
		if kc.count[a] != kc.count[b] {
			return kc.count[a] > kc.count[b]
		}
		return a < b
	})
	return kc, nil
}

// top returns the n heaviest keys (all of them when fewer exist).
func (kc *keyCounts) top(n int) []string {
	if n > len(kc.heavy) {
		n = len(kc.heavy)
	}
	return kc.heavy[:n]
}

// Fields of an access-log line ("epoch<TAB>project<TAB>page<TAB>bytes")
// and of a web-log line ("client<TAB>hour<TAB>path<TAB>bytes<TAB>...").
const (
	accessProject = 1
	accessPage    = 2
	webBytes      = 3
)

// parseBytes parses the byte-count field of a web-log line.
func parseBytes(line []byte) (float64, bool) {
	n, err := strconv.ParseInt(string(tabField(line, webBytes)), 10, 64)
	return float64(n), err == nil
}
