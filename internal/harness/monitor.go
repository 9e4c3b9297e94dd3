package harness

import (
	"os"
	"path/filepath"

	"runaheadsim/internal/core"
)

// Monitor receives the boundaries of simulated runs and of their phases;
// perfbench turns them into trace spans. Implementations must be safe for
// concurrent use: sampled intervals and prewarmed sweeps report from many
// worker goroutines at once.
type Monitor interface {
	// RunStart and RunDone bracket one (benchmark, configuration) run.
	// RunDone fires even when the run dies (deferred), so every RunStart is
	// closed.
	RunStart(bench, config string)
	RunDone(bench, config string)
	// Phase reports one unit of work entering a phase — "bbv-profile",
	// "fast-forward", "warmup", or "measure" — with its committed-uop goal
	// (0 = unknown). interval is the sampled-interval id, or -1 for
	// full-detail runs and the planning/fast-forward passes.
	Phase(bench, config string, interval int, phase string, total uint64)
	// Done reports the unit finished all its phases.
	Done(bench, config string, interval int)
}

// WriteFlightDump writes c's flight-recorder ring to dir/<name>.jsonl,
// returning the path ("" when disabled, empty, or on I/O failure — a crash
// dump must never mask the crash).
func WriteFlightDump(dir, name string, c *core.Core) string {
	fr := c.FlightRecorder()
	if dir == "" || fr == nil || fr.Len() == 0 {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	if err := fr.WriteJSONL(f); err != nil {
		return ""
	}
	return path
}
