// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation section (and this repository's
// extension ablations) as textual tables — the same rows/series the
// paper plots, with the same qualitative shapes.
//
// Each experiment is registered under the id of the paper artifact it
// regenerates (fig7, fig8, fig10, fig11, fig13, fig14,
// tab-ntb-packing, ...); cmd/paradmm-bench runs them by id. Numbers
// that gate a change are not produced here: they are the cells of the
// repository benchmark (benchmark/, BENCHMARK.json).
package bench
