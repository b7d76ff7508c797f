package approxhadoop_test

import (
	"bytes"
	"strings"
	"testing"

	approxhadoop "approxhadoop"
)

func TestFacadeReducersAndWriters(t *testing.T) {
	// Every template constructor must return a usable ReduceLogic.
	for name, mk := range map[string]func(int) approxhadoop.ReduceLogic{
		"sum":   approxhadoop.MultiStageSumReduce,
		"count": approxhadoop.MultiStageCountReduce,
		"mean":  approxhadoop.MultiStageMeanReduce,
		"min":   approxhadoop.ApproxMinReduce,
		"max":   approxhadoop.ApproxMaxReduce,
		"plain": approxhadoop.SumReduce,
	} {
		if mk(0) == nil {
			t.Errorf("%s constructor returned nil", name)
		}
	}
	for _, spec := range []approxhadoop.Approximation{{SampleRatio: 0.5, DropRatio: 0.25}, {TargetError: 0.01}} {
		if set, err := spec.Settings(); err != nil || set.Controller.Name() == "" {
			t.Errorf("%+v: controller name (%v)", spec, err)
		}
	}
	if c := approxhadoop.PaperCost(); c.T0 <= 0 {
		t.Error("PaperCost")
	}

	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	input := approxhadoop.SplitText("w.txt", corpus(), 4096)
	res, err := sys.Run(wordCountJob(sys, input))
	if err != nil {
		t.Fatal(err)
	}
	var text, tsv, js bytes.Buffer
	if err := approxhadoop.WriteText(&text, res); err != nil {
		t.Fatal(err)
	}
	if err := approxhadoop.WriteTSV(&tsv, res); err != nil {
		t.Fatal(err)
	}
	if err := approxhadoop.WriteJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "lorem") || !strings.Contains(tsv.String(), "lorem") ||
		!strings.Contains(js.String(), "lorem") {
		t.Error("writers missing output keys")
	}
}
