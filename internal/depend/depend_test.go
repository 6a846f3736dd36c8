package depend

import (
	"slices"
	"testing"

	"repro/internal/loopir"
)

// Specs gives the distribution directive for each library program, playing
// the role of the Fortran D-style alignment/distribution directives the
// paper assumes the programmer provides.
func specFor(t testing.TB, name string) DistSpec {
	t.Helper()
	switch name {
	case "mm":
		return DistSpec{Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}}
	case "sor":
		return DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}}
	case "lu":
		return DistSpec{Dims: map[string]int{"a": 1}, Loops: []string{"j"}}
	case "jacobi":
		return DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}}
	case "axpy":
		return DistSpec{Dims: map[string]int{"x": 0, "y": 0}, Loops: []string{"i"}}
	case "threshold-relax":
		return DistSpec{Dims: map[string]int{"v": 0}, Loops: []string{"i"}}
	}
	t.Fatalf("no spec for %q", name)
	return DistSpec{}
}

func analyze(t *testing.T, p *loopir.Program) *Analysis {
	t.Helper()
	a, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", p.Name, err)
	}
	return a
}

// carriedBy returns the unattributed dependences carried by the named loop.
func carriedBy(t *testing.T, a *Analysis, loopVar string) []Dep {
	t.Helper()
	deps, err := a.DepsFor(DistSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var out []Dep
	for _, d := range deps {
		if d.Carrier == loopVar {
			out = append(out, d)
		}
	}
	return out
}

// TestTable1 reproduces Table 1 of the paper exactly: the six application
// properties for MM, SOR, and LU.
func TestTable1(t *testing.T) {
	want := map[string]Properties{
		"mm": {
			LoopCarriedDeps: false, CommOutsideLoop: false, RepeatedExecution: true,
			VaryingLoopBounds: false, IndexDependentSize: false, DataDependentSize: false,
		},
		"sor": {
			LoopCarriedDeps: true, CommOutsideLoop: true, RepeatedExecution: true,
			VaryingLoopBounds: false, IndexDependentSize: false, DataDependentSize: false,
		},
		"lu": {
			LoopCarriedDeps: false, CommOutsideLoop: true, RepeatedExecution: true,
			VaryingLoopBounds: true, IndexDependentSize: true, DataDependentSize: false,
		},
	}
	lib := loopir.Library()
	for name, w := range want {
		a := analyze(t, lib[name])
		got, err := a.PropertiesFor(specFor(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != w {
			t.Errorf("%s properties:\n got  %v\n want %v", name, got, w)
		}
	}
}

func TestSORDependenceStructure(t *testing.T) {
	a := analyze(t, loopir.SOR())

	// The pipeline dependence: flow carried by the distributed loop j with
	// distance +1 (b[j][i] -> b[j-1][i] read at j+1).
	foundPipelineFlow := false
	// The within-sweep anti dependence carried by j (b[j+1][i] read before
	// its write) — requires the OLD value, hence the sweep-start exchange.
	foundAntiJ := false
	for _, d := range carriedBy(t, a, "j") {
		if d.Kind == Flow && !d.Distance.Any && d.Distance.D == 1 {
			foundPipelineFlow = true
		}
		if d.Kind == Anti && !d.Distance.Any && d.Distance.D == 1 {
			foundAntiJ = true
		}
	}
	if !foundPipelineFlow {
		t.Error("missing flow dependence carried by j with distance +1 (pipeline)")
	}
	if !foundAntiJ {
		t.Error("missing anti dependence carried by j with distance +1")
	}

	// The row pipeline: flow carried by i with distance +1.
	foundRowFlow := false
	for _, d := range carriedBy(t, a, "i") {
		if d.Kind == Flow && !d.Distance.Any && d.Distance.D == 1 {
			foundRowFlow = true
		}
	}
	if !foundRowFlow {
		t.Error("missing flow dependence carried by i with distance +1")
	}

	// Sweep-to-sweep dependence with a -1 shift on j: the element consumed
	// through b[j+1][i] was written one column to the right in the previous
	// sweep. This is what forces communication outside the distributed loop.
	foundIterCross := false
	for _, d := range carriedBy(t, a, "iter") {
		if c, ok := d.At("j"); ok && !c.Any && c.D == -1 && d.Kind == Flow {
			foundIterCross = true
		}
	}
	if !foundIterCross {
		t.Error("missing iter-carried flow dependence with j-shift -1")
	}
}

func TestMMDependenceStructure(t *testing.T) {
	a := analyze(t, loopir.MatMul())
	if deps := carriedBy(t, a, "j"); len(deps) != 0 {
		t.Errorf("MM has %d dependences carried by distributed loop j: %v", len(deps), deps)
	}
	if deps := carriedBy(t, a, "i"); len(deps) != 0 {
		t.Errorf("MM has %d dependences carried by i: %v", len(deps), deps)
	}
	// The reduction dependence on c is carried by k with distance 1.
	foundReduction := false
	for _, d := range carriedBy(t, a, "k") {
		if d.Array == "c" && d.Kind == Flow && !d.Distance.Any && d.Distance.D == 1 {
			foundReduction = true
		}
	}
	if !foundReduction {
		t.Error("missing k-carried flow dependence on c (the reduction)")
	}
}

func TestLUDependenceStructure(t *testing.T) {
	a := analyze(t, loopir.LU())
	if deps := carriedBy(t, a, "j"); len(deps) != 0 {
		t.Errorf("LU has %d dependences carried by distributed loop j: %v", len(deps), deps)
	}
	if len(carriedBy(t, a, "k")) == 0 {
		t.Error("LU should have dependences carried by the outer k loop")
	}
	// The normalize->update flow is loop-independent (same k) and crosses
	// owners (pivot column read by every column owner).
	deps, err := a.DepsFor(specFor(t, "lu"))
	if err != nil {
		t.Fatal(err)
	}
	foundBroadcast := false
	for _, d := range deps {
		if d.Kind == Flow && d.Carrier == "" && d.CrossOwner {
			foundBroadcast = true
		}
	}
	if !foundBroadcast {
		t.Error("missing loop-independent cross-owner flow dependence (pivot broadcast)")
	}
}

func TestJacobiOwnership(t *testing.T) {
	a := analyze(t, loopir.Jacobi())
	deps, err := a.DepsFor(specFor(t, "jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	// The copy-back (anew -> a within a sweep) is same-owner: aligned.
	// The stencil reads of a[i±1][j] cross owners across sweeps.
	crossIter, sameCopy := false, false
	for _, d := range deps {
		if d.Array == "anew" && d.Carrier == "" && !d.CrossOwner {
			sameCopy = true
		}
		if d.Array == "a" && d.Carrier == "iter" && d.CrossOwner {
			crossIter = true
		}
	}
	if !sameCopy {
		t.Error("copy-back dependence should be same-owner (aligned distribution)")
	}
	if !crossIter {
		t.Error("stencil dependence across sweeps should cross owners")
	}
	pr, err := a.PropertiesFor(specFor(t, "jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	if pr.LoopCarriedDeps {
		t.Error("Jacobi sweeps carry no dependences on the distributed loops")
	}
	if !pr.CommOutsideLoop {
		t.Error("Jacobi needs boundary communication each sweep")
	}
}

func TestAxpyNoCommunication(t *testing.T) {
	a := analyze(t, loopir.Axpy())
	pr, err := a.PropertiesFor(specFor(t, "axpy"))
	if err != nil {
		t.Fatal(err)
	}
	if pr.LoopCarriedDeps || pr.CommOutsideLoop {
		t.Errorf("axpy should need no communication at all: %v", pr)
	}
	if !pr.RepeatedExecution {
		t.Error("axpy's distributed loop repeats every outer iteration")
	}
}

func TestThresholdRelaxDataDependent(t *testing.T) {
	a := analyze(t, loopir.ThresholdRelax())
	pr, err := a.PropertiesFor(specFor(t, "threshold-relax"))
	if err != nil {
		t.Fatal(err)
	}
	if !pr.DataDependentSize {
		t.Error("threshold-relax iteration size is data dependent")
	}
}

func TestUniformCheckLibrary(t *testing.T) {
	for name, p := range loopir.Library() {
		a := analyze(t, p)
		if err := UniformCheck(a); err != nil {
			t.Errorf("%s: concrete results violate symbolic equations: %v", name, err)
		}
	}
}

func TestGCDIndependent(t *testing.T) {
	p := &loopir.Program{
		Name:   "gcd",
		Params: []string{"n"},
		Arrays: []*loopir.ArrayDecl{{Name: "a", Dims: []loopir.IExpr{loopir.Iv("n")}}},
	}
	evens := loopir.Fref("a", loopir.Imul(loopir.Ic(2), loopir.Iv("i")))
	odds := loopir.Fref("a", loopir.Iadd(loopir.Imul(loopir.Ic(2), loopir.Iv("i")), loopir.Ic(1)))
	if !GCDIndependent(p, evens, odds) {
		t.Error("a[2i] and a[2i+1] should be proven independent")
	}
	self := loopir.Fref("a", loopir.Iv("i"))
	next := loopir.Fref("a", loopir.Iadd(loopir.Iv("i"), loopir.Ic(1)))
	if GCDIndependent(p, self, next) {
		t.Error("a[i] and a[i+1] must not be proven independent")
	}
	c0 := loopir.Fref("a", loopir.Ic(0))
	c1 := loopir.Fref("a", loopir.Ic(1))
	if !GCDIndependent(p, c0, c1) {
		t.Error("a[0] and a[1] should be proven independent")
	}
	if GCDIndependent(p, c0, c0) {
		t.Error("a[0] and a[0] must not be proven independent")
	}
}

func TestDistLoopsFor(t *testing.T) {
	cases := []struct {
		prog  *loopir.Program
		array string
		dim   int
		want  []string
	}{
		{loopir.MatMul(), "c", 1, []string{"j"}},
		{loopir.SOR(), "b", 0, []string{"j"}},
		{loopir.LU(), "a", 1, []string{"j"}},
		{loopir.Jacobi(), "anew", 0, []string{"i"}},
		{loopir.Jacobi(), "a", 0, []string{"i2"}},
	}
	for _, tc := range cases {
		a := analyze(t, tc.prog)
		got := a.DistLoopsFor(tc.array, tc.dim)
		if len(got) != len(tc.want) {
			t.Errorf("%s/%s dim %d: got %v, want %v", tc.prog.Name, tc.array, tc.dim, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s/%s dim %d: got %v, want %v", tc.prog.Name, tc.array, tc.dim, got, tc.want)
			}
		}
	}
}

func TestWrittenArrays(t *testing.T) {
	a := analyze(t, loopir.Jacobi())
	got := a.WrittenArrays()
	if len(got) != 2 || got[0] != "a" || got[1] != "anew" {
		t.Fatalf("WrittenArrays = %v, want [a anew]", got)
	}
}

func TestDepStringsAreReadable(t *testing.T) {
	deps, err := analyze(t, loopir.SOR()).DepsFor(DistSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if d.String() == "" {
			t.Fatal("empty dependence description")
		}
	}
}

func TestSampleSizeRobustness(t *testing.T) {
	// The same structural conclusions must hold for a different pair of
	// sample sizes.
	a := analyze(t, loopir.SOR())
	count := func(samples []map[string]int) int {
		deps, err := a.depsAt(samples, DistSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return len(slices.DeleteFunc(deps, func(d Dep) bool { return d.Carrier != "j" }))
	}
	if n1, n2 := count(defaultSamples(a.Prog)), count([]map[string]int{{"n": 11, "maxiter": 4}, {"n": 7, "maxiter": 2}}); n1 != n2 {
		t.Errorf("j-carried dependence count differs across sample sizes: %d vs %d", n1, n2)
	}
}

func TestParseDist(t *testing.T) {
	spec, err := ParseDist("a:0,anew:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Dims) != 2 || spec.Dims["a"] != 0 || spec.Dims["anew"] != 1 || len(spec.Loops) != 0 {
		t.Errorf("ParseDist = %+v", spec)
	}
	for _, bad := range []string{"", "a", "a:", ":1", "a:x", "a:0,,b:1"} {
		if _, err := ParseDist(bad); err == nil {
			t.Errorf("ParseDist(%q) accepted", bad)
		}
	}
}
