package linalg

// projectAVX2 runs the first 4*blocks rows of AffineProjector.Project as
// the Go loops do: c, gain and d point at element 0 of cblk, gain and D,
// src and dst at element 0 of slices of length n.
//
//go:noescape
func projectAVX2(c, gain *[4]float64, d, src, dst *float64, n, blocks int)
