package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"runaheadsim"
)

// TestTraceEveryMode drives the pipeline-trace path under every mode the
// facade lists: the trace, checkpoint and restore paths resolve -mode
// through the same table as a plain run, so none may reject a mode the
// others accept.
func TestTraceEveryMode(t *testing.T) {
	dir := t.TempDir()
	for _, m := range runaheadsim.Modes() {
		out := filepath.Join(dir, strings.ReplaceAll(string(m), "+", "_")+".txt")
		if err := tracePipeline("mcf", string(m), false, false, "stream", 300, "text", out, false, 0, ""); err != nil {
			t.Errorf("-mode %s -trace: %v", m, err)
			continue
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("-mode %s -trace: empty trace", m)
		}
	}
	if err := tracePipeline("mcf", "nosuch", false, false, "stream", 300, "text", filepath.Join(dir, "x.txt"), false, 0, ""); err == nil {
		t.Error("an unknown mode must be rejected")
	}
}
