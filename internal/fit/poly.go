package fit

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Poly is a fitted polynomial y = Σ Coeffs[i]·xⁱ (Coeffs[0] is the
// constant term).
type Poly struct {
	Coeffs []float64
}

// PolyFit fits a polynomial of the given degree to (x, y) by least
// squares. It requires at least degree+1 samples with distinct x values.
func PolyFit(x, y []float64, degree int) (Poly, error) {
	if degree < 0 {
		return Poly{}, errors.New("fit: negative degree")
	}
	if len(x) != len(y) {
		return Poly{}, errors.New("fit: x/y length mismatch")
	}
	if len(x) < degree+1 {
		return Poly{}, ErrSingular
	}
	design := make([][]float64, len(x))
	for i, xv := range x {
		row := make([]float64, degree+1)
		pow := 1.0
		for d := 0; d <= degree; d++ {
			row[d] = pow
			pow *= xv
		}
		design[i] = row
	}
	coeffs, err := leastSquares(design, y)
	if err != nil {
		return Poly{}, err
	}
	return Poly{Coeffs: coeffs}, nil
}

// Eval evaluates the polynomial at x (Horner's method).
func (p Poly) Eval(x float64) float64 {
	y := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// String renders the polynomial in the paper's aI²+bI+c style.
func (p Poly) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%.4g", p.Coeffs[i])
		case 1:
			fmt.Fprintf(&b, "%.4g·x", p.Coeffs[i])
		default:
			fmt.Fprintf(&b, "%.4g·x^%d", p.Coeffs[i], i)
		}
	}
	return b.String()
}

// LinearFit fits y = m·x + n and returns (m, n).
func LinearFit(x, y []float64) (m, n float64, err error) {
	p, err := PolyFit(x, y, 1)
	if err != nil {
		return 0, 0, err
	}
	return p.Coeffs[1], p.Coeffs[0], nil
}

// LogLinear is a fitted y = Alpha·ln(x) + Beta model — the form the paper
// uses for power vs sequence length (Eqns 4 and 6).
type LogLinear struct {
	Alpha, Beta float64
}

// LogLinearFit fits y = α·ln(x) + β. All x must be positive.
func LogLinearFit(x, y []float64) (LogLinear, error) {
	lx := make([]float64, len(x))
	for i, xv := range x {
		if xv <= 0 {
			return LogLinear{}, errors.New("fit: log-linear requires positive x")
		}
		lx[i] = math.Log(xv)
	}
	m, n, err := LinearFit(lx, y)
	if err != nil {
		return LogLinear{}, err
	}
	return LogLinear{Alpha: m, Beta: n}, nil
}

// Eval evaluates the model at x (x must be positive for a meaningful
// result; x <= 0 returns Beta).
func (l LogLinear) Eval(x float64) float64 {
	if x <= 0 {
		return l.Beta
	}
	return l.Alpha*math.Log(x) + l.Beta
}
