package metrics

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Fatalf("speedup = %v, want 5", s)
	}
	if s := Speedup(time.Second, 0); s != 0 {
		t.Fatalf("speedup with zero elapsed = %v, want 0", s)
	}
}

func TestEfficiencyDedicated(t *testing.T) {
	// 4 dedicated slaves, perfect speedup: efficiency 1.
	usage := make([]cluster.Usage, 4)
	e := Efficiency(8*time.Second, 2*time.Second, usage)
	if e != 1.0 {
		t.Fatalf("efficiency = %v, want 1.0", e)
	}
}

func TestEfficiencyWithCompetingLoad(t *testing.T) {
	// 2 slaves, one loses half its CPU to a competitor: available CPU is
	// elapsed + elapsed/2 = 3s; sequential work of 3s -> efficiency 1.
	usage := []cluster.Usage{
		{CompetingCPU: time.Second},
		{},
	}
	e := Efficiency(3*time.Second, 2*time.Second, usage)
	if e != 1.0 {
		t.Fatalf("efficiency = %v, want 1.0", e)
	}
	// Less productive work over the same availability -> lower efficiency.
	e = Efficiency(1500*time.Millisecond, 2*time.Second, usage)
	if e != 0.5 {
		t.Fatalf("efficiency = %v, want 0.5", e)
	}
}

func TestEfficiencyGuards(t *testing.T) {
	usage := []cluster.Usage{{CompetingCPU: 10 * time.Second}}
	if e := Efficiency(time.Second, time.Second, usage); e != 0 {
		t.Fatalf("efficiency with no available CPU = %v, want 0", e)
	}
}
