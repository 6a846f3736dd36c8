package trace

import (
	"strings"
	"testing"
)

func wave() (*Series, *Series) {
	a := &Series{Name: "raw"}
	b := &Series{Name: "work"}
	for i := 0; i < 20; i++ {
		t := float64(i)
		v := 1.0
		if i%10 < 5 {
			v = 0.5
		}
		a.Append(t, v)
		b.Append(t, v*10)
	}
	return a, b
}

func TestPlotASCII(t *testing.T) {
	a, b := wave()
	out := PlotASCII(40, 8, a, b.Normalized(10))
	if !strings.Contains(out, "legend: *=raw +=work") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := PlotASCII(40, 8, &Series{Name: "empty"}); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestSeriesMaxAndNormalized(t *testing.T) {
	s := &Series{Name: "s"}
	s.Append(0, 2)
	s.Append(1, 8)
	if s.Max() != 8 {
		t.Fatalf("max = %v", s.Max())
	}
	n := s.Normalized(8)
	if n.V[1] != 1 || n.V[0] != 0.25 {
		t.Fatalf("normalized = %v", n.V)
	}
	z := s.Normalized(0) // guards divide-by-zero
	if z.V[1] != 8 {
		t.Fatalf("normalize by zero should pass through, got %v", z.V)
	}
}
