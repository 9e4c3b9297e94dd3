//go:build nometrics

package metrics

// Enabled: metrics are compiled out. Instrument methods become constant-false
// branches that the compiler deletes; registries still exist (and export
// nothing changing) so telemetry endpoints keep serving.
const Enabled = false
