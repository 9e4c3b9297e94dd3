package harness

import (
	"os"
	"path/filepath"

	"runaheadsim/internal/core"
)

// Monitor receives live progress from simulated runs. Implementations must
// be safe for concurrent use: sampled intervals and prewarmed sweeps report
// from many worker goroutines at once. telemetry.Tracker satisfies this
// interface structurally, so neither package imports the other.
type Monitor interface {
	// RunStart and RunDone bracket one (benchmark, configuration) run.
	// RunDone fires even when the run dies (deferred), so live views don't
	// show ghosts after a crash.
	RunStart(bench, config string)
	RunDone(bench, config string)
	// Phase reports one unit of work entering a phase — "bbv-profile",
	// "fast-forward", "warmup", or "measure" — with its committed-uop goal
	// (0 = unknown). interval is the sampled-interval id, or -1 for
	// full-detail runs and the planning/fast-forward passes.
	Phase(bench, config string, interval int, phase string, total uint64)
	// Progress reports committed uops completed within the current phase.
	Progress(bench, config string, interval int, done uint64)
	// Done reports the unit finished all its phases.
	Done(bench, config string, interval int)
}

// progressChunk is how often chunked runs report committed-uop progress. At
// typical simulation speeds this is a few reports per second per worker —
// cheap next to the simulation, frequent enough for a live view.
const progressChunk = 100_000

// chunkRun drives c to target committed uops (in the current stats epoch),
// reporting after every progressChunk. Chunking is invisible to the
// simulation: Run(target) loops until the committed count reaches target, so
// several calls are bit-identical to one — cycle counts, statistics, and
// snapshot bytes all match.
func chunkRun(c *core.Core, target uint64, report func(done uint64)) *core.Stats {
	if report == nil {
		return c.Run(target)
	}
	st := c.Stats()
	for t := uint64(progressChunk); t < target; t += progressChunk {
		st = c.Run(t)
		report(st.Committed)
	}
	st = c.Run(target)
	report(st.Committed)
	return st
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
