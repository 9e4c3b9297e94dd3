package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"runaheadsim"
	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
)

// TestTraceEverySystem drives the pipeline-trace path under every system the
// facade lists: the trace, checkpoint and restore paths resolve -system
// through the same table as a plain run, so none may reject a system the
// others accept.
func TestTraceEverySystem(t *testing.T) {
	dir := t.TempDir()
	for _, s := range runaheadsim.Systems() {
		out := filepath.Join(dir, strings.ReplaceAll(s, "+", "_")+".txt")
		if err := tracePipeline("mcf", s, 300, "text", out, false, 0, ""); err != nil {
			t.Errorf("-system %s -trace: %v", s, err)
			continue
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("-system %s -trace: empty trace", s)
		}
	}
	if err := tracePipeline("mcf", "nosuch", 300, "text", filepath.Join(dir, "x.txt"), false, 0, ""); err == nil {
		t.Error("an unknown system must be rejected")
	}
}

// TestSystemIsTheFiguresMachine pins every -system name to the core the
// figures build for the same harness system; in particular Hybrid and
// Adaptive run with the runahead enhancements.
func TestSystemIsTheFiguresMachine(t *testing.T) {
	for _, rc := range harness.Systems() {
		got, _, err := machine("mcf", rc.Label(), 0)
		if err != nil {
			t.Fatalf("-system %s: %v", rc.Label(), err)
		}
		if want := (harness.Options{}).CoreConfig(rc); !reflect.DeepEqual(got, want) {
			t.Errorf("-system %s builds %+v, the figures build %+v", rc.Label(), got, want)
		}
		if (got.Mode == core.ModeHybrid || got.Mode == core.ModeAdaptive) && !got.Enhancements {
			t.Errorf("-system %s runs without the runahead enhancements", rc.Label())
		}
	}
}
