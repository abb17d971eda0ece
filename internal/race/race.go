// Package race reports whether the Go race detector is compiled into
// this binary. Experiment tests consult it: race instrumentation slows
// the simulator by an order of magnitude, so they shorten or skip the
// full-duration sweeps and the wall-clock speedup ratios it distorts.
package race
