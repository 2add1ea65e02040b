package linalg

import (
	"fmt"
	"strings"
)

// Mat is a dense, row-major matrix. The zero value is an empty matrix.
// Its methods are plain loops for building problems and checking results;
// the solves on the iteration path are in cholesky.go and affine.go.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zeroed r-by-c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// MatFromRows builds a matrix from row slices, which must all share one
// length. The data is copied.
func MatFromRows(rows [][]float64) *Mat {
	r := len(rows)
	if r == 0 {
		return NewMat(0, 0)
	}
	c := len(rows[0])
	m := NewMat(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows in MatFromRows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MulVec computes dst = m * x. dst must have length m.Rows and must not
// alias x.
func (m *Mat) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: %dx%d by %d into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Mul returns the product a*b as a new matrix.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Gram returns the symmetric matrix a^T a, accumulated one row of a at a
// time so that no transpose is formed.
func Gram(a *Mat) *Mat {
	n := a.Cols
	out := NewMat(n, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i, ai := range row {
			orow := out.Data[i*n : i*n+i+1]
			for j, aj := range row[:i+1] {
				orow[j] += ai * aj
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// Add returns a+b as a new matrix.
func Add(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	out := NewMat(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Scale returns alpha*a as a new matrix.
func Scale(a *Mat, alpha float64) *Mat {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= alpha
	}
	return out
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		fmt.Fprintf(&b, "%v\n", m.Row(i))
	}
	return b.String()
}
