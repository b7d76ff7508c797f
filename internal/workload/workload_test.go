package workload

import (
	"io"
	"strings"
	"testing"
	"testing/quick"

	"approxhadoop/internal/dfs"
)

func blockLines(t testing.TB, b *dfs.Block) []string {
	t.Helper()
	rc := b.Open()
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines
}

func TestWikiDumpGeneration(t *testing.T) {
	w := WikiDump{Blocks: 4, ArticlesPerBlock: 50, LinkUniverse: 100, MeanLinks: 4, Seed: 7}
	f := w.File("wiki")
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	seen := map[string]bool{}
	for _, b := range f.Blocks {
		lines := blockLines(t, b)
		if len(lines) != 50 {
			t.Errorf("block %d has %d lines", b.Index, len(lines))
		}
		for _, line := range lines {
			a, ok := ParseArticle(line)
			if !ok {
				t.Fatalf("unparseable line: %q", line)
			}
			if a.Size <= 0 {
				t.Errorf("non-positive size: %+v", a)
			}
			if seen[a.ID] {
				t.Errorf("duplicate article id %s", a.ID)
			}
			seen[a.ID] = true
			for _, l := range a.Links {
				if !strings.HasPrefix(l, "A") {
					t.Errorf("bad link %q", l)
				}
			}
		}
	}
	// Determinism.
	again := blockLines(t, w.File("wiki2").Blocks[0])
	first := blockLines(t, f.Blocks[0])
	for i := range first {
		if first[i] != again[i] {
			t.Fatal("generation must be deterministic per seed/index")
		}
	}
}

func TestParseArticleMalformed(t *testing.T) {
	if _, ok := ParseArticle("garbage"); ok {
		t.Error("no tabs should fail")
	}
	if _, ok := ParseArticle("A1\tnotanumber\tA2"); ok {
		t.Error("bad size should fail")
	}
	a, ok := ParseArticle("A1\t100\t")
	if !ok || len(a.Links) != 0 {
		t.Errorf("empty links should parse: %+v ok=%v", a, ok)
	}
}

func TestSizeBin(t *testing.T) {
	cases := map[int]string{1: "1B", 2: "2B", 3: "4B", 100: "128B", 1024: "1024B", 1025: "2048B"}
	for size, want := range cases {
		if got := SizeBin(size); got != want {
			t.Errorf("SizeBin(%d) = %s, want %s", size, got, want)
		}
	}
}

func TestAccessLogGeneration(t *testing.T) {
	a := AccessLog{Blocks: 3, LinesPerBlock: 200, Projects: 20, Pages: 100, Seed: 5}
	f := a.File("log")
	projCounts := map[string]int{}
	for _, b := range f.Blocks {
		for _, line := range blockLines(t, b) {
			acc, ok := ParseAccess(line)
			if !ok {
				t.Fatalf("unparseable: %q", line)
			}
			if acc.Bytes <= 0 || acc.Epoch < 0 {
				t.Errorf("bad record: %+v", acc)
			}
			projCounts[acc.Project]++
		}
	}
	// Zipf popularity: proj1 should dominate.
	if projCounts["proj1"] <= projCounts["proj10"] {
		t.Errorf("proj1 (%d) should dominate proj10 (%d)", projCounts["proj1"], projCounts["proj10"])
	}
}

func TestParseAccessMalformed(t *testing.T) {
	for _, bad := range []string{"", "a\tb", "x\tproj\tpage\tbytes", "notanum\tp\tq\t5"} {
		if _, ok := ParseAccess(bad); ok {
			t.Errorf("should fail: %q", bad)
		}
	}
}

func TestScaledAccessLogGrowsLinearly(t *testing.T) {
	d1 := ScaledAccessLog(1, 4, 100, 9)
	d30 := ScaledAccessLog(30, 4, 100, 9)
	if d30.Blocks != 30*d1.Blocks {
		t.Errorf("30 days should have 30x blocks: %d vs %d", d30.Blocks, d1.Blocks)
	}
}

func TestWebLogGeneration(t *testing.T) {
	w := WebLog{Blocks: 4, LinesPerBlock: 2000, Clients: 100, Attackers: 5, AttackRate: 0.2, Seed: 11}
	f := w.File("weblog")
	attacks, benign := 0, 0
	hourCounts := map[int]int{}
	for _, b := range f.Blocks {
		for _, line := range blockLines(t, b) {
			rec, ok := ParseWebAccess(line)
			if !ok {
				t.Fatalf("unparseable: %q", line)
			}
			if rec.IsAttack() {
				attacks++
				if !strings.HasPrefix(rec.Client, "c") {
					t.Errorf("bad attacker client %q", rec.Client)
				}
			} else {
				benign++
			}
			hourCounts[rec.HourOfWeek]++
		}
	}
	if attacks == 0 {
		t.Error("expected some attacks")
	}
	if attacks > benign/5 {
		t.Errorf("attacks should be rare: %d vs %d benign", attacks, benign)
	}
	// Office hours (Tue 11:00 = hour 35) should beat night (Tue 03:00 = 27).
	if hourCounts[35] <= hourCounts[27] {
		t.Errorf("weekly shape missing: office %d vs night %d", hourCounts[35], hourCounts[27])
	}
}

func TestParseWebAccessMalformed(t *testing.T) {
	for _, bad := range []string{"", "a\tb\tc\td\te", "c1\t200\t/p\t10\tFirefox\t-", "c1\tx\t/p\t10\tF\t-"} {
		if _, ok := ParseWebAccess(bad); ok {
			t.Errorf("should fail: %q", bad)
		}
	}
	rec, ok := ParseWebAccess("c1\t35\t/p1\t100\tFirefox\tsqlinj")
	if !ok || !rec.IsAttack() || rec.HourOfWeek != 35 {
		t.Errorf("parse: %+v ok=%v", rec, ok)
	}
}

func TestSearchSeeds(t *testing.T) {
	f := SearchSeeds("seeds", 10, 3)
	if len(f.Blocks) != 10 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	seen := map[int64]bool{}
	for _, b := range f.Blocks {
		lines := blockLines(t, b)
		if len(lines) != 1 {
			t.Fatalf("block %d should hold one seed line", b.Index)
		}
		s, ok := ParseSeed(lines[0])
		if !ok {
			t.Fatalf("unparseable seed line %q", lines[0])
		}
		if seen[s] {
			t.Errorf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	if _, ok := ParseSeed("bogus"); ok {
		t.Error("bogus seed line should fail")
	}
	if _, ok := ParseSeed("seed\tx"); ok {
		t.Error("non-numeric seed should fail")
	}
}

func TestGeneratorsHandleZeroConfigs(t *testing.T) {
	if f := (WikiDump{}).File("w"); len(f.Blocks) != 1 {
		t.Error("zero-config wiki should clamp to 1 block")
	}
	if f := (AccessLog{}).File("a"); len(f.Blocks) != 1 {
		t.Error("zero-config log should clamp")
	}
	if f := (WebLog{}).File("b"); len(f.Blocks) != 1 {
		t.Error("zero-config weblog should clamp")
	}
	if f := SearchSeeds("s", 0, 1); len(f.Blocks) != 1 {
		t.Error("zero maps should clamp")
	}
}

func TestHourWeightProperty(t *testing.T) {
	err := quick.Check(func(h uint16) bool {
		w := hourWeight(int(h) % 168)
		return w > 0 && w < 2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDefaultsAreSane(t *testing.T) {
	if d := DefaultWikiDump(); d.Blocks != 161 {
		t.Errorf("wiki default blocks = %d (paper: 161 maps)", d.Blocks)
	}
	if d := DefaultAccessLog(); d.Blocks != 740 {
		t.Errorf("access default blocks = %d (paper: ~740 maps/week)", d.Blocks)
	}
	if d := DefaultWebLog(); d.Blocks != 80 {
		t.Errorf("weblog default blocks = %d (paper: 80 weeks)", d.Blocks)
	}
}

func TestWikiLinkPopularityIsHeavyTailed(t *testing.T) {
	w := WikiDump{Blocks: 6, ArticlesPerBlock: 300, LinkUniverse: 500, MeanLinks: 6, Seed: 13}
	f := w.File("wiki")
	counts := map[string]int{}
	for _, b := range f.Blocks {
		for _, line := range blockLines(t, b) {
			a, _ := ParseArticle(line)
			for _, l := range a.Links {
				counts[l]++
			}
		}
	}
	if counts["A1"] <= counts["A100"] {
		t.Errorf("A1 (%d) should attract more links than A100 (%d)", counts["A1"], counts["A100"])
	}
}
