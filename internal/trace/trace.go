// Package trace renders time series (Figure 9: raw rate, filtered rate,
// work assignment over time) as ASCII plots for terminal inspection.
package trace

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named time series.
type Series struct {
	Name string
	T    []float64 // x values (seconds)
	V    []float64 // y values
}

// Append adds one sample.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.V {
		if v > m {
			m = v
		}
	}
	return m
}

// Normalized returns a copy with values scaled by 1/denom.
func (s *Series) Normalized(denom float64) *Series {
	out := &Series{Name: s.Name}
	for i := range s.V {
		d := denom
		if d == 0 {
			d = 1
		}
		out.Append(s.T[i], s.V[i]/d)
	}
	return out
}

// PlotASCII renders the series as an ASCII chart of the given size. Values
// are plotted on a shared y scale from 0 to the global maximum.
func PlotASCII(width, height int, series ...*Series) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMax := 0.0
	for _, s := range series {
		for i := range s.T {
			if s.T[i] < tMin {
				tMin = s.T[i]
			}
			if s.T[i] > tMax {
				tMax = s.T[i]
			}
			if s.V[i] > vMax {
				vMax = s.V[i]
			}
		}
	}
	if math.IsInf(tMin, 1) || tMax <= tMin || vMax <= 0 {
		return "(no data)\n"
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.T {
			x := int((s.T[i] - tMin) / (tMax - tMin) * float64(width-1))
			y := int(s.V[i] / vMax * float64(height-1))
			row := height - 1 - y
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][x] = mark
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "y: 0..%.3g\n", vMax)
	for _, row := range grid {
		sb.WriteString("|")
		sb.Write(row)
		sb.WriteString("\n")
	}
	sb.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&sb, " x: %.3g..%.3g s   legend:", tMin, tMax)
	for si, s := range series {
		fmt.Fprintf(&sb, " %c=%s", marks[si%len(marks)], s.Name)
	}
	sb.WriteString("\n")
	return sb.String()
}
