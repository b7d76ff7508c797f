package approxhadoop_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/workload"
)

// frozenSketchTSV pins the SHA-256 of WriteTSV for the two sketch-plane
// wiki queries in both map-output representations. The hashes were
// recorded at commit dbdb00d, before the PR 13 rewrite of TopK.Fold,
// the Parse* functions and mapEmitter.EmitElement, so a change to any
// output byte of the plane — a different candidate set, a parse that
// accepts another line, a counter that moved — fails here rather than
// in a diff someone has to remember to run. Key:
// app/representation/seed/approximation.
var frozenSketchTSV = map[string]string{
	"toppages/sketch/1/precise":       "55881dc4cffd1250787b8d068d732c3477dd62b5f537556c29fd4667cf960789",
	"toppages/sketch/1/s0.2-d0.3":     "458ba47e6e3766ee1eb97a0a97268e51b11da440649f402156df6fa94af7cecf",
	"toppages/sketch/7/precise":       "8afda49f83cc772e781d721aa72815703ef20a4369b8975aaebdce07c4e6894a",
	"toppages/sketch/7/s0.2-d0.3":     "809984a07646d9d82f0082e7f6436cb80d1d4e37cffd385247f50c3ccce6a04e",
	"toppages/pairs/1/precise":        "6f92e6c60c295ea4ba542bbeed4ffd95c2cfad476e68900690ef52a5a4176413",
	"toppages/pairs/1/s0.2-d0.3":      "f2ffc985392bd2ca343b34c26594666776434bb2943188c839cc45ecb11e20ff",
	"toppages/pairs/7/precise":        "4efbefe17768caed14a2ee107c14c5850ada8b12c95479aabac73128c553bda0",
	"toppages/pairs/7/s0.2-d0.3":      "cc9a0858ff0f6198914c68bd689240c999b73b535d9dea0c6c9389c2c4b7bac0",
	"wikidistinct/sketch/1/precise":   "07408e956bcb361228059fb4424dee68e0a85ff312c355698c31505118036fab",
	"wikidistinct/sketch/1/s0.2-d0.3": "010f4aacbefb3a9b3279a342216512963db7f4b79c4fc0e354da9e4b1e16d2b5",
	"wikidistinct/sketch/7/precise":   "81c0bee67513dc3b32bf5b6c39ee03eaf61080333b322ce49df76362f5c05f8f",
	"wikidistinct/sketch/7/s0.2-d0.3": "79957170c00f703e4631be364721f0c68c41838cd29da4a365858c744f39346f",
	"wikidistinct/pairs/1/precise":    "b132f5e55f626cf09dead9257fc19922ee073d5080d4c8fc1b9385183853746c",
	"wikidistinct/pairs/1/s0.2-d0.3":  "d31052a9f12e8471dd106afb87e65f8e66a8515772c837729a107cd64bcfa074",
	"wikidistinct/pairs/7/precise":    "410f696675204c095b6943a916752755f5578c5a0ad1cb3330779baa7948f2e4",
	"wikidistinct/pairs/7/s0.2-d0.3":  "ee0dac1df1d4c6c544134d72efb5f6b6c3924ea320703902a062c11bc1722abc",
}

// TestFrozenSketchPlaneBytes runs every frozen configuration at
// Workers 1 and 4 and compares the TSV hash with the recorded one.
func TestFrozenSketchPlaneBytes(t *testing.T) {
	for _, app := range []string{"toppages", "wikidistinct"} {
		for _, sketched := range []bool{true, false} {
			for _, seed := range []int64{1, 7} {
				for _, approximate := range []bool{false, true} {
					rep, mode := "pairs", "precise"
					if sketched {
						rep = "sketch"
					}
					if approximate {
						mode = "s0.2-d0.3"
					}
					name := fmt.Sprintf("%s/%s/%d/%s", app, rep, seed, mode)
					for _, workers := range []int{1, 4} {
						got := frozenRun(t, app, sketched, seed, approximate, workers)
						if want := frozenSketchTSV[name]; got != want {
							t.Errorf("%s workers=%d: TSV sha256 %s, frozen %s", name, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// frozenRun executes one configuration and returns the hex SHA-256 of
// its WriteTSV bytes. Blocks are long enough (1500 lines over 20 k
// pages) that every map task fills its 80-candidate set and evicts.
func frozenRun(t *testing.T, app string, sketched bool, seed int64, approximate bool, workers int) string {
	t.Helper()
	opts := apps.SketchOptions{
		Options: apps.Options{Seed: seed, Cost: approxhadoop.PaperCost()},
		Sketch:  sketched,
	}
	if approximate {
		opts.Controller = approx.NewStatic(0.2, 0.3)
	}
	var job *approxhadoop.Job
	switch app {
	case "toppages":
		log := workload.AccessLog{Blocks: 40, LinesPerBlock: 1500, Projects: 400, Pages: 20000, Seed: seed}
		job = apps.WikiTopPages(log.File("frozen-access"), opts)
	case "wikidistinct":
		log := workload.EditLog{Blocks: 24, LinesPerBlock: 1500, Projects: 40, Editors: 5000, Pages: 20000, Seed: seed}
		job = apps.WikiDistinctEditors(log.File("frozen-edits"), opts)
	}
	job.Workers = workers
	res, err := approxhadoop.NewSystem(approxhadoop.DefaultCluster()).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var tsv bytes.Buffer
	if err := approxhadoop.WriteTSV(&tsv, res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(tsv.Bytes())
	return hex.EncodeToString(sum[:])
}
