package baseline

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

func mm(t *testing.T, n int) *MM {
	t.Helper()
	m, err := NewMM(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSelfSchedCorrectDedicated(t *testing.T) {
	m := mm(t, 24)
	for _, pol := range []ChunkPolicy{FixedChunk(1), FixedChunk(4), GSS{}} {
		res, err := RunSelfSched(m, cluster.Config{Slaves: 3}, pol, 0)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := m.Verify(res); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
		if res.UnitsMoved != 24 {
			t.Errorf("%s: units moved = %d, want 24 (every unit ships)", pol.Name(), res.UnitsMoved)
		}
	}
}

func TestSelfSchedAdaptsToLoad(t *testing.T) {
	m := mm(t, 32)
	flop := 100 * time.Microsecond
	cc := cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	res, err := RunSelfSched(m, cc, FixedChunk(1), flop)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
	// Self-scheduling adapts naturally: the loaded slave just requests
	// fewer chunks. Elapsed should be well under the static worst case
	// (half-speed slave doing a quarter of the work = 2x the fair share).
	unitCost := time.Duration(m.UnitFlops() * float64(flop))
	static := time.Duration(2 * 8 * float64(unitCost)) // 8 units at half speed
	if res.Elapsed >= static {
		t.Errorf("elapsed %v did not beat the static bound %v", res.Elapsed, static)
	}
}

func TestGSSChunksShrink(t *testing.T) {
	g := GSS{}
	first := g.Next(100, 4)
	if first != 25 {
		t.Fatalf("first GSS chunk = %d, want 25", first)
	}
	if n := g.Next(3, 4); n != 1 {
		t.Fatalf("small-remainder GSS chunk = %d, want 1", n)
	}
}

func TestDiffusionCorrectDedicated(t *testing.T) {
	m := mm(t, 24)
	res, err := RunDiffusion(m, cluster.Config{Slaves: 3}, DiffusionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
}

func TestDiffusionShiftsWorkUnderLoad(t *testing.T) {
	m := mm(t, 48)
	flop := 100 * time.Microsecond
	cc := cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	res, err := RunDiffusion(m, cc, DiffusionConfig{FlopCost: flop})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.UnitsMoved == 0 {
		t.Fatal("diffusion moved no work despite a loaded slave")
	}
	// The surplus on the loaded slave must drain toward the others: total
	// time well under the static bound (12 units at half speed).
	unitCost := time.Duration(m.UnitFlops() * float64(flop))
	static := time.Duration(2 * 12 * float64(unitCost))
	if res.Elapsed >= static {
		t.Errorf("elapsed %v did not beat static bound %v", res.Elapsed, static)
	}
}

func TestDiffusionHeterogeneousSpeeds(t *testing.T) {
	m := mm(t, 48)
	cc := cluster.Config{Slaves: 4, Speed: []float64{0.5, 1, 1, 2}}
	res, err := RunDiffusion(m, cc, DiffusionConfig{FlopCost: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.UnitsMoved == 0 {
		t.Fatal("no diffusion toward the fast slave")
	}
}

func TestSelfSchedSingleSlave(t *testing.T) {
	m := mm(t, 16)
	res, err := RunSelfSched(m, cluster.Config{Slaves: 1}, GSS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
}

func TestDiffusionSingleSlave(t *testing.T) {
	m := mm(t, 16)
	res, err := RunDiffusion(m, cluster.Config{Slaves: 1}, DiffusionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.UnitsMoved != 0 {
		t.Fatal("single slave moved work to itself")
	}
}
