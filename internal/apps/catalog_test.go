package apps_test

import (
	"testing"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/harness"
	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stream"
)

// TestRegistryMatchesTable1: every name approxrun, approxd and Table 1
// use resolves to exactly one catalog entry, and the rows keep the
// paper's mechanisms.
func TestRegistryMatchesTable1(t *testing.T) {
	names, rows := map[string]int{}, map[string]int{}
	for _, e := range apps.Catalog {
		names[e.Name]++
		if (e.Batch == nil) == (e.Stream == nil) {
			t.Errorf("%s: want exactly one of a batch and a stream builder", e.Name)
		}
		if e.Batch != nil {
			rows[e.Row.Name]++
			if e.Row.Name == "" || e.Row.ErrEst == "" {
				t.Errorf("%s: incomplete Table 1 row %+v", e.Name, e.Row)
			}
		}
	}
	// approxrun resolves every catalog name.
	for _, name := range apps.Names(nil) {
		if names[name] != 1 {
			t.Errorf("catalog name %q names %d entries", name, names[name])
		}
	}
	// approxd: the apps it serves and the ones its traces draw from.
	served := jobserver.Apps()
	for _, s := range jobserver.GenerateTrace(40, 1) {
		served = append(served, s.App)
	}
	for _, name := range served {
		if e, ok := apps.Lookup(name); !ok || names[name] != 1 || e.Batch == nil {
			t.Errorf("approxd app %q does not resolve to one batch entry", name)
		}
	}
	// Table 1: one entry per printed row.
	specs, err := harness.New(harness.Config{Scale: 0.01}).Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if rows[s.Name] != 1 {
			t.Errorf("Table 1 row %q is %d entries' row", s.Name, rows[s.Name])
		}
	}
	byRow := map[string]apps.Spec{}
	for _, s := range specs {
		byRow[s.Name] = s
	}
	if s := byRow["DCPlacement"]; !s.Dropping || s.Sampling || s.ErrEst != "GEV" {
		t.Errorf("DCPlacement spec wrong: %+v", s)
	}
	if s := byRow["AvgBytesPerLink"]; s.ErrEst != "MS3" {
		t.Errorf("AvgBytesPerLink spec wrong: %+v", s)
	}
	if s := byRow["KMeans"]; !s.UserDefined || s.ErrEst != "U" {
		t.Errorf("KMeans spec wrong: %+v", s)
	}
	if s := byRow["ProjectPopularity"]; !s.Sampling || !s.Dropping || s.ErrEst != "MS" {
		t.Errorf("ProjectPopularity spec wrong: %+v", s)
	}
	if s := byRow["WikiEditorMembership"]; s.ErrEst != "SK" {
		t.Errorf("WikiEditorMembership spec wrong: %+v", s)
	}
}

// TestCatalogEveryEntryRuns builds and runs every entry at a tiny
// scale: each batch entry precisely and at sampleRatio 0.5, each stream
// entry to its first window.
func TestCatalogEveryEntryRuns(t *testing.T) {
	const scale = 0.001
	for _, e := range apps.Catalog {
		t.Run(e.Name, func(t *testing.T) {
			if e.Stream != nil {
				p := e.Stream(e.Dataset.File(scale, 1), apps.StreamOptions{Seed: 1, MaxWindows: 1})
				n := 0
				if err := p.RunEach(func(stream.WindowResult) error { n++; return nil }); err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Error("no window emitted")
				}
				return
			}
			for _, a := range []approx.Approximation{{}, {SampleRatio: 0.5}} {
				set, err := a.Settings()
				if err != nil {
					t.Fatal(err)
				}
				opts := apps.Options{Controller: set.Controller, Seed: 1, Cost: cluster.PaperCost()}
				job := e.Batch(e.Dataset.File(scale, 1), scale, apps.SketchOptions{Options: opts})
				res, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job)
				if err != nil {
					t.Fatalf("%+v: %v", a, err)
				}
				if len(res.Outputs) == 0 {
					t.Errorf("%+v: no outputs", a)
				}
			}
		})
	}
}
