//go:build !nometrics

package metrics

// Enabled reports whether the metrics layer is compiled in. It is a build
// constant: with the nometrics tag every instrument method reduces to a
// constant-false branch the compiler removes, so the layer can be compiled
// out entirely — the same escape hatch the simcheck tag provides in the
// other direction.
const Enabled = true
