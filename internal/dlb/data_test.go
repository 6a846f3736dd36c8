package dlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/loopir"
)

func TestUnitSliceRoundTrip2D(t *testing.T) {
	a := loopir.NewArray("a", []int{4, 5})
	a.Fill(func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	// Column 3 (dim 1): elements a[i][3].
	col := unitSlice(a, 1, 3)
	if len(col) != 4 {
		t.Fatalf("column length = %d, want 4", len(col))
	}
	for i, v := range col {
		if v != float64(10*i+3) {
			t.Fatalf("col[%d] = %v, want %v", i, v, 10*i+3)
		}
	}
	b := loopir.NewArray("b", []int{4, 5})
	setUnitSlice(b, 1, 3, col)
	for i := 0; i < 4; i++ {
		if b.At(i, 3) != float64(10*i+3) {
			t.Fatalf("b[%d][3] = %v", i, b.At(i, 3))
		}
		if b.At(i, 0) != 0 {
			t.Fatal("setUnitSlice touched other columns")
		}
	}
	// Row 2 (dim 0): contiguous.
	row := unitSlice(a, 0, 2)
	for j, v := range row {
		if v != float64(20+j) {
			t.Fatalf("row[%d] = %v", j, v)
		}
	}
}

func TestUnitSliceRows(t *testing.T) {
	a := loopir.NewArray("a", []int{6, 6})
	a.Fill(func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	// Column 2, rows [1,4): a[1][2], a[2][2], a[3][2].
	vals := unitSliceRows(a, 1, 2, 0, 1, 4)
	want := []float64{12, 22, 32}
	if len(vals) != 3 {
		t.Fatalf("len = %d, want 3", len(vals))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	b := loopir.NewArray("b", []int{6, 6})
	setUnitSliceRows(b, 1, 2, 0, 1, 4, vals)
	if b.At(2, 2) != 22 || b.At(0, 2) != 0 || b.At(4, 2) != 0 {
		t.Fatal("setUnitSliceRows wrote outside the row range")
	}
}

func TestUnitSliceQuickRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 1 + r.Intn(5)
		}
		dim := r.Intn(rank)
		u := r.Intn(dims[dim])
		a := loopir.NewArray("a", dims)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		vals := unitSlice(a, dim, u)
		if len(vals) != unitSize(a, dim) {
			return false
		}
		b := loopir.NewArray("b", dims)
		setUnitSlice(b, dim, u, vals)
		// Every element with index dim == u must match; all others zero.
		ok := true
		idx := make([]int, rank)
		var walk func(d int)
		walk = func(d int) {
			if d == rank {
				got := b.At(idx...)
				want := 0.0
				if idx[dim] == u {
					want = a.At(idx...)
				}
				if got != want {
					ok = false
				}
				return
			}
			for v := 0; v < dims[d]; v++ {
				idx[d] = v
				walk(d + 1)
			}
		}
		walk(0)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// forEachUnitElem visits the flat offsets of the array with index dim = u,
// optionally restricted to rowDim in [rowLo, rowHi), in canonical order: the
// per-element walk that defines what a unit selection is, and the oracle
// the contiguous-run copies in data.go are tested and benchmarked against.
func forEachUnitElem(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, fn func(flat int)) {
	idx := make([]int, len(a.Dims))
	var rec func(d, flat int)
	rec = func(d, flat int) {
		if d == len(a.Dims) {
			fn(flat)
			return
		}
		if d == dim {
			rec(d+1, flat+u*a.Stride[d])
			return
		}
		lo, hi := 0, a.Dims[d]
		if d == rowDim {
			lo, hi = rowLo, rowHi
			if lo < 0 {
				lo = 0
			}
			if hi > a.Dims[d] {
				hi = a.Dims[d]
			}
		}
		for v := lo; v < hi; v++ {
			idx[d] = v
			rec(d+1, flat+v*a.Stride[d])
		}
	}
	rec(0, 0)
}

// TestUnitCopyOracle pits the contiguous-run copies against the
// per-element walk (the oracle) on every shape from rank 1 to rank 5 —
// ranks 4 and 5 take the odometer — and every distributed dim, unit and
// row restriction, including out-of-range bounds that must clamp, empty
// selections, and rowDim == dim (a range on the index already pinned to u
// restricts nothing).
func TestUnitCopyOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := [][]int{{6}, {1}, {4, 5}, {5, 4}, {1, 7}, {3, 4, 5}, {2, 2, 2}, {5, 1, 3},
		{3, 2, 4, 3}, {2, 3, 1, 4}, {1, 1, 1, 1}, {2, 3, 2, 2, 3}, {3, 1, 2, 4, 2}}
	for _, dims := range shapes {
		a := loopir.NewArray("a", dims)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		for dim := range dims {
			for u := 0; u < dims[dim]; u++ {
				cases := [][3]int{{-1, 0, 0}} // unrestricted
				for rowDim := range dims {
					rd := dims[rowDim]
					cases = append(cases,
						[3]int{rowDim, 0, rd},           // full range
						[3]int{rowDim, rd / 2, rd},      // suffix
						[3]int{rowDim, 0, (rd + 1) / 2}, // prefix
						[3]int{rowDim, -3, rd + 3},      // clamped
						[3]int{rowDim, rd / 2, rd / 2},  // empty
					)
				}
				for _, c := range cases {
					rowDim, lo, hi := c[0], c[1], c[2]
					var want []float64
					forEachUnitElem(a, dim, u, rowDim, lo, hi, func(flat int) {
						want = append(want, a.Data[flat])
					})
					var got []float64
					if rowDim < 0 {
						got = unitSlice(a, dim, u)
					} else {
						got = unitSliceRows(a, dim, u, rowDim, lo, hi)
					}
					if len(got) != len(want) {
						t.Fatalf("dims=%v dim=%d u=%d row=(%d,%d,%d): len %d, oracle %d",
							dims, dim, u, rowDim, lo, hi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("dims=%v dim=%d u=%d row=(%d,%d,%d): elem %d = %v, oracle %v",
								dims, dim, u, rowDim, lo, hi, i, got[i], want[i])
						}
					}

					// Scatter: writing the gathered values into a fresh
					// array must exactly reproduce the oracle's writes.
					wantArr := loopir.NewArray("w", dims)
					i := 0
					forEachUnitElem(wantArr, dim, u, rowDim, lo, hi, func(flat int) {
						wantArr.Data[flat] = want[i]
						i++
					})
					gotArr := loopir.NewArray("g", dims)
					if rowDim < 0 {
						setUnitSlice(gotArr, dim, u, got)
					} else {
						setUnitSliceRows(gotArr, dim, u, rowDim, lo, hi, got)
					}
					for f := range wantArr.Data {
						if gotArr.Data[f] != wantArr.Data[f] {
							t.Fatalf("dims=%v dim=%d u=%d row=(%d,%d,%d): scatter flat %d = %v, oracle %v",
								dims, dim, u, rowDim, lo, hi, f, gotArr.Data[f], wantArr.Data[f])
						}
					}
				}
			}
		}
	}
}

// TestGhostListsSortedUnique guards the invariant the sort/dedup removal
// rests on: ghost lists come out ascending and duplicate-free for random
// ownerships.
func TestGhostListsSortedUnique(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(5)
		units := slaves + r.Intn(30)
		o := core.NewBlockOwnership(units, slaves)
		for u := 0; u < units; u++ {
			to := r.Intn(slaves)
			if o.OwnerOf(u) != to {
				if err := o.Apply(core.Move{From: o.OwnerOf(u), To: to, Units: []int{u}}); err != nil {
					return false
				}
			}
			if r.Intn(5) == 0 {
				o.Deactivate(u)
			}
		}
		for _, delta := range []int{-2, -1, 1, 2} {
			for s := 0; s < slaves; s++ {
				needs := ghostNeeds(o, s, delta)
				for i := 1; i < len(needs); i++ {
					if needs[i] <= needs[i-1] {
						return false
					}
				}
				sup := ghostSupplies(o, s, delta)
				for i := 1; i < len(sup); i++ {
					if sup[i].Unit <= sup[i-1].Unit {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGhostNeedsAndSuppliesMatch(t *testing.T) {
	// Global invariant: across all slaves, every need has exactly one
	// matching supply, for any ownership and delta.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(5)
		units := slaves + r.Intn(30)
		o := core.NewBlockOwnership(units, slaves)
		// Random scatter + random deactivations.
		for u := 0; u < units; u++ {
			to := r.Intn(slaves)
			if o.OwnerOf(u) != to {
				if err := o.Apply(core.Move{From: o.OwnerOf(u), To: to, Units: []int{u}}); err != nil {
					return false
				}
			}
			if r.Intn(5) == 0 {
				o.Deactivate(u)
			}
		}
		delta := []int{-1, 1}[r.Intn(2)]
		type pair struct{ unit, slave int }
		needs := map[pair]int{}
		supplies := map[pair]int{}
		for s := 0; s < slaves; s++ {
			for _, g := range ghostNeeds(o, s, delta) {
				needs[pair{g, s}]++
			}
			for _, sp := range ghostSupplies(o, s, delta) {
				supplies[pair{sp.Unit, sp.To}]++
			}
		}
		if len(needs) != len(supplies) {
			return false
		}
		for k, n := range needs {
			if n != 1 || supplies[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGhostNeedsBlockDistribution(t *testing.T) {
	o := core.NewBlockOwnership(12, 3) // 0-3, 4-7, 8-11
	// delta -1: middle slave needs unit 3 from slave 0.
	needs := ghostNeeds(o, 1, -1)
	if len(needs) != 1 || needs[0] != 3 {
		t.Fatalf("needs = %v, want [3]", needs)
	}
	sup := ghostSupplies(o, 0, -1)
	if len(sup) != 1 || sup[0].Unit != 3 || sup[0].To != 1 {
		t.Fatalf("supplies = %v, want unit 3 -> slave 1", sup)
	}
	// Leftmost slave needs nothing at delta -1; rightmost nothing at +1.
	if n := ghostNeeds(o, 0, -1); len(n) != 0 {
		t.Fatalf("slave 0 needs %v at delta -1", n)
	}
	if n := ghostNeeds(o, 2, 1); len(n) != 0 {
		t.Fatalf("slave 2 needs %v at delta +1", n)
	}
}

func TestContiguousRuns(t *testing.T) {
	units := []int{1, 2, 3, 7, 8, 10}
	runs := contiguousRuns(nil, units, 0, 100)
	want := [][2]int{{1, 4}, {7, 9}, {10, 11}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	// Intersection with bounds.
	runs = contiguousRuns(nil, units, 2, 8)
	want = [][2]int{{2, 4}, {7, 8}}
	if len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Fatalf("bounded runs = %v, want %v", runs, want)
	}
	if runs := contiguousRuns(nil, nil, 0, 10); len(runs) != 0 {
		t.Fatalf("empty input produced %v", runs)
	}
	if runs := contiguousRuns(nil, units, 20, 30); len(runs) != 0 {
		t.Fatalf("disjoint bounds produced %v", runs)
	}
}

func TestContiguousRunsQuickCoverage(t *testing.T) {
	// The runs exactly cover units ∩ [lo, hi), in order, without overlap,
	// and are maximal: a unit missing from the list separates each pair.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		set := map[int]bool{}
		var units []int
		for u := 0; u < 40; u++ {
			if r.Intn(2) == 0 {
				set[u] = true
				units = append(units, u)
			}
		}
		lo := r.Intn(40)
		hi := lo + r.Intn(40-lo+1)
		covered := map[int]bool{}
		prevEnd := lo - 2
		for _, run := range contiguousRuns(nil, units, lo, hi) {
			if run[0] >= run[1] || run[0] < lo || run[1] > hi || run[0] <= prevEnd+1 {
				return false
			}
			prevEnd = run[1] - 1
			for u := run[0]; u < run[1]; u++ {
				if !set[u] || covered[u] {
					return false
				}
				covered[u] = true
			}
		}
		for u := lo; u < hi; u++ {
			if set[u] && !covered[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnitSliceAliasSafety proves a unitSlice result shares no storage with
// the array it was taken from: the slave's broadcast path sends the slice
// without a defensive copy, so mutation in either direction after the
// snapshot must not leak through.
func TestUnitSliceAliasSafety(t *testing.T) {
	a := loopir.NewArray("a", []int{6, 6})
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	vals := unitSlice(a, 0, 2)
	want := append([]float64(nil), vals...)

	for i := range a.Data {
		a.Data[i] = -1
	}
	for i, v := range vals {
		if v != want[i] {
			t.Fatalf("slice element %d changed to %g after array mutation", i, v)
		}
	}

	snap := append([]float64(nil), a.Data...)
	for i := range vals {
		vals[i] = 999
	}
	for i, v := range a.Data {
		if v != snap[i] {
			t.Fatalf("array element %d changed to %g after slice mutation", i, v)
		}
	}
}
