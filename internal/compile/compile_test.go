package compile

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

func mustCompile(t *testing.T, prog *loopir.Program, opts Options) *Plan {
	t.Helper()
	p, err := Compile(prog, opts)
	if err != nil {
		t.Fatalf("Compile(%s): %v", prog.Name, err)
	}
	return p
}

func specMM() depend.DistSpec {
	return depend.DistSpec{Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}}
}
func specSOR() depend.DistSpec {
	return depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}}
}
func specLU() depend.DistSpec {
	return depend.DistSpec{Dims: map[string]int{"a": 1}, Loops: []string{"j"}}
}
func specJacobi() depend.DistSpec {
	return depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}}
}

func TestCompileMMStructure(t *testing.T) {
	p := mustCompile(t, loopir.MatMul(), Options{Dist: specMM()})
	if p.Restricted {
		t.Error("MM should use unrestricted movement (no carried deps, no ghosts)")
	}
	if p.StripMined {
		t.Error("MM needs no strip mining")
	}
	if len(p.GhostDeltas) != 0 {
		t.Errorf("MM ghost deltas = %v, want none", p.GhostDeltas)
	}
	if len(p.Replicated) != 1 || p.Replicated[0] != "a" {
		t.Errorf("replicated = %v, want [a]", p.Replicated)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("top-level steps = %d, want 1", len(p.Steps))
	}
	outer, ok := p.Steps[0].(*SeqLoop)
	if !ok || outer.Var != "i" {
		t.Fatalf("outer step = %T, want SeqLoop(i)", p.Steps[0])
	}
	if len(outer.Body) != 2 {
		t.Fatalf("i body = %d steps, want OwnedLoop + Hook", len(outer.Body))
	}
	if _, ok := outer.Body[0].(*OwnedLoop); !ok {
		t.Fatalf("i body[0] = %T, want OwnedLoop", outer.Body[0])
	}
	if _, ok := outer.Body[1].(*Hook); !ok {
		t.Fatalf("i body[1] = %T, want Hook", outer.Body[1])
	}
}

func TestCompileSORStructure(t *testing.T) {
	p := mustCompile(t, loopir.SOR(), Options{Dist: specSOR()})
	if !p.Restricted {
		t.Error("SOR must use restricted (block) movement")
	}
	if !p.StripMined {
		t.Error("SOR's pipelined row loop must be strip mined")
	}
	wantDeltas := []int{-1, 1}
	if len(p.GhostDeltas) != 2 || p.GhostDeltas[0] != wantDeltas[0] || p.GhostDeltas[1] != wantDeltas[1] {
		t.Errorf("ghost deltas = %v, want %v", p.GhostDeltas, wantDeltas)
	}
	outer, ok := p.Steps[0].(*SeqLoop)
	if !ok || outer.Var != "iter" {
		t.Fatalf("outer = %T, want SeqLoop(iter)", p.Steps[0])
	}
	// iter body: Exchange(b,+1), StripLoop(i), Hook.
	ex, ok := outer.Body[0].(*Exchange)
	if !ok || len(ex.Parts) != 1 || ex.Parts[0] != (GhostPart{Array: "b", Delta: 1}) {
		t.Fatalf("iter body[0] = %#v, want Exchange(b,+1)", outer.Body[0])
	}
	strip, ok := outer.Body[1].(*StripLoop)
	if !ok || strip.Var != "i" {
		t.Fatalf("iter body[1] = %T, want StripLoop(i)", outer.Body[1])
	}
	if len(strip.Pre) != 1 {
		t.Fatalf("strip pre = %d steps, want 1 PipeRecv", len(strip.Pre))
	}
	pr, ok := strip.Pre[0].(*PipeRecv)
	if !ok || pr.Array != "b" || pr.Delta != -1 {
		t.Fatalf("strip pre[0] = %#v, want PipeRecv(b,-1)", strip.Pre[0])
	}
	if len(strip.Post) != 2 {
		t.Fatalf("strip post = %d steps, want PipeSend + Hook", len(strip.Post))
	}
	ps, ok := strip.Post[0].(*PipeSend)
	if !ok || ps.Array != "b" || ps.Delta != 1 {
		t.Fatalf("strip post[0] = %#v, want PipeSend(b,+1)", strip.Post[0])
	}
	if h, ok := strip.Post[1].(*Hook); !ok || h.Level != 1 {
		t.Fatalf("strip post[1] = %#v, want Hook level 1", strip.Post[1])
	}
	if _, ok := strip.Body[0].(*OwnedLoop); !ok {
		t.Fatalf("strip body[0] = %T, want OwnedLoop", strip.Body[0])
	}
	// There is also an outer hook at the iter level.
	if h, ok := outer.Body[2].(*Hook); !ok || h.Level != 0 {
		t.Fatalf("iter body[2] = %#v, want Hook level 0", outer.Body[2])
	}
}

func TestCompileLUStructure(t *testing.T) {
	p := mustCompile(t, loopir.LU(), Options{Dist: specLU()})
	if p.Restricted {
		t.Error("LU movement can be unrestricted (no carried deps on j, no ghosts)")
	}
	outer, ok := p.Steps[0].(*SeqLoop)
	if !ok || outer.Var != "k" {
		t.Fatalf("outer = %T, want SeqLoop(k)", p.Steps[0])
	}
	// k body: OwnerBlock(k) [normalize], Bcast(a,k), OwnedLoop(j), Hook.
	ob, ok := outer.Body[0].(*OwnerBlock)
	if !ok || ob.Index.String() != "k" {
		t.Fatalf("k body[0] = %#v, want OwnerBlock(k)", outer.Body[0])
	}
	bc, ok := outer.Body[1].(*Bcast)
	if !ok || bc.Array != "a" || bc.Index.String() != "k" {
		t.Fatalf("k body[1] = %#v, want Bcast(a,k)", outer.Body[1])
	}
	ol, ok := outer.Body[2].(*OwnedLoop)
	if !ok || ol.Var != "j" {
		t.Fatalf("k body[2] = %T, want OwnedLoop(j)", outer.Body[2])
	}
	if _, ok := outer.Body[3].(*Hook); !ok {
		t.Fatalf("k body[3] = %T, want Hook", outer.Body[3])
	}
}

func TestCompileJacobiStructure(t *testing.T) {
	p := mustCompile(t, loopir.Jacobi(), Options{Dist: specJacobi()})
	if !p.Restricted {
		t.Error("Jacobi needs block distribution for its ghost exchanges")
	}
	if p.StripMined {
		t.Error("Jacobi has no pipeline to strip-mine")
	}
	outer := p.Steps[0].(*SeqLoop)
	nExch, nOwned := 0, 0
	for _, s := range outer.Body {
		switch s := s.(type) {
		case *Exchange:
			nExch += len(s.Parts)
		case *OwnedLoop:
			nOwned++
		}
	}
	if nExch != 2 {
		t.Errorf("exchange parts = %d, want 2 (both boundaries)", nExch)
	}
	if ex, ok := outer.Body[0].(*Exchange); !ok || len(ex.Parts) != 2 {
		t.Errorf("iter body[0] = %#v, want the one exchange group holding both parts", outer.Body[0])
	}
	if nOwned != 2 {
		t.Errorf("owned loops = %d, want 2 (sweep + copy-back)", nOwned)
	}
}

func TestAutoDistributeMM(t *testing.T) {
	p := mustCompile(t, loopir.MatMul(), Options{})
	if p.DistArrays["c"] != 1 {
		t.Errorf("auto distribution of c = dim %d, want 1", p.DistArrays["c"])
	}
	if dim, ok := p.DistArrays["b"]; !ok || dim != 1 {
		t.Errorf("b should be aligned on dim 1, got %v (present %v)", dim, ok)
	}
	if _, ok := p.DistArrays["a"]; ok {
		t.Error("a should be replicated, not distributed")
	}
	if len(p.Dist.Loops) != 1 || p.Dist.Loops[0] != "j" {
		t.Errorf("auto loops = %v, want [j]", p.Dist.Loops)
	}
}

// TestLoadProgram checks the commands' program loading: -dist applies to a
// library program as well as to a file, a library program otherwise runs
// under LibraryDist, and a file under the derived directive. The file is
// the library jacobi as source text, which derives its columns.
func TestLoadProgram(t *testing.T) {
	file := filepath.Join("testdata", "jacobi.dlb")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != lang.Format(loopir.Jacobi()) {
		t.Fatalf("%s is not lang.Format(loopir.Jacobi())", file)
	}
	for _, tc := range []struct {
		file, dist, name string
		want             map[string]int
	}{
		{"", "", "jacobi", map[string]int{"a": 0, "anew": 0}},
		{"", "a:1,anew:1", "jacobi", map[string]int{"a": 1, "anew": 1}},
		{"", "", "mm", map[string]int{"c": 1, "b": 1}},
		{file, "", "jacobi", map[string]int{"a": 1, "anew": 1}},
		{file, "a:0,anew:0", "", map[string]int{"a": 0, "anew": 0}},
	} {
		prog, spec, err := LoadProgram(tc.file, tc.dist, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		p := mustCompile(t, prog, Options{Dist: spec})
		if !maps.Equal(p.Dist.Dims, tc.want) {
			t.Errorf("LoadProgram(%q, %q, %q) compiles under %v, want %v", tc.file, tc.dist, tc.name, p.Dist.Dims, tc.want)
		}
	}
}

func TestCompileRejectsNonOwnerComputes(t *testing.T) {
	n := loopir.Iv("n")
	prog := &loopir.Program{
		Name:   "shift",
		Params: []string{"n", "maxiter"},
		Arrays: []*loopir.ArrayDecl{{Name: "a", Dims: []loopir.IExpr{n}}},
		Body: []loopir.Stmt{
			loopir.For("iter", loopir.Ic(0), loopir.Iv("maxiter"),
				loopir.For("i", loopir.Ic(0), loopir.Isub(n, loopir.Ic(1)),
					loopir.Set(loopir.Fref("a", loopir.Iadd(loopir.Iv("i"), loopir.Ic(1))),
						loopir.Fref("a", loopir.Iv("i"))))),
		},
	}
	_, err := Compile(prog, Options{Dist: depend.DistSpec{Dims: map[string]int{"a": 0}, Loops: []string{"i"}}})
	if err == nil {
		t.Fatal("write a[i+1] under distributed loop i accepted as owner-computes")
	}
}

func TestCompileRejectsOuterDistributedPipeline(t *testing.T) {
	// Row distribution of a Gauss–Seidel stencil puts the distributed loop
	// outside the pipelined dimension; that needs loop interchange, which
	// the compiler does not do — it must fail with a clear error.
	_, err := Compile(loopir.ThresholdRelax(), Options{
		Dist: depend.DistSpec{Dims: map[string]int{"v": 0}, Loops: []string{"i"}},
	})
	if err == nil {
		t.Fatal("row-distributed Gauss–Seidel accepted")
	}
	if !strings.Contains(err.Error(), "interchange") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// Plan renderings are pinned whole by TestRenderPlanGolden
// (testdata/render_*.txt); the communication keywords formerly asserted
// here — exchange_ghost, pipelines, lbhook, broadcast_from_owner,
// owner computes — are covered by the goldens.

func TestInstantiateMM(t *testing.T) {
	p := mustCompile(t, loopir.MatMul(), Options{Dist: specMM()})
	e, err := p.Instantiate(map[string]int{"n": 16}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Units != 16 {
		t.Fatalf("units = %d, want 16", e.Units)
	}
	if len(e.Phases) != 16 {
		t.Fatalf("phases = %d, want 16 (one per outer i)", len(e.Phases))
	}
	for _, ph := range e.Phases {
		if ph.UnitsBetween != 16 || ph.ActiveLo != 0 || ph.ActiveHi != 16 {
			t.Fatalf("phase = %+v, want {0,16,16}", ph)
		}
	}
	// Total flops: n outer x n units x (n fma x 3 ops).
	if e.TotalFlops != 16*16*16*3 {
		t.Fatalf("TotalFlops = %v, want %d", e.TotalFlops, 16*16*16*3)
	}
	lo, hi := e.InitialLo, e.InitialHi
	if lo != 0 || hi != 16 {
		t.Fatalf("initial active = [%d,%d), want [0,16)", lo, hi)
	}
}

func TestInstantiateLUShrinks(t *testing.T) {
	p := mustCompile(t, loopir.LU(), Options{Dist: specLU()})
	e, err := p.Instantiate(map[string]int{"n": 8}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Phases) != 8 {
		t.Fatalf("phases = %d, want 8", len(e.Phases))
	}
	if e.Phases[0].ActiveLo != 1 || e.Phases[0].ActiveHi != 8 {
		t.Fatalf("phase 0 active = [%d,%d), want [1,8)", e.Phases[0].ActiveLo, e.Phases[0].ActiveHi)
	}
	if e.Phases[7].ActiveLo != 8 || e.Phases[7].UnitsBetween != 0 {
		t.Fatalf("final phase = %+v, want empty active set", e.Phases[7])
	}
	// Units between phases shrink: 7, 6, 5, ...
	for i := 0; i < 7; i++ {
		if e.Phases[i].UnitsBetween != 7-i {
			t.Fatalf("phase %d units = %d, want %d", i, e.Phases[i].UnitsBetween, 7-i)
		}
	}
	lo, hi := e.InitialLo, e.InitialHi
	if lo != 1 || hi != 8 {
		t.Fatalf("initial active = [%d,%d), want [1,8)", lo, hi)
	}
}

func TestInstantiateSORGrain(t *testing.T) {
	p := mustCompile(t, loopir.SOR(), Options{Dist: specSOR()})
	params := map[string]int{"n": 14, "maxiter": 3}
	// 12 interior rows, grain 5 -> 3 blocks per sweep; level-1 hooks fire
	// per block, level-0 per sweep.
	e, err := p.Instantiate(params, 5, Options{HookCostFlops: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if e.ActiveLevel != 1 {
		t.Fatalf("active level = %d, want 1 (strip block hooks)", e.ActiveLevel)
	}
	if len(e.Phases) != 9 {
		t.Fatalf("phases = %d, want 9 (3 sweeps x 3 blocks)", len(e.Phases))
	}
	// Each block: 5 (or 2) rows x 12 interior columns.
	if e.Phases[0].UnitsBetween != 5*12 {
		t.Fatalf("phase 0 units = %d, want 60", e.Phases[0].UnitsBetween)
	}
	if e.Phases[2].UnitsBetween != 2*12 {
		t.Fatalf("phase 2 units = %d, want 24 (tail block)", e.Phases[2].UnitsBetween)
	}
}

func TestInstantiateHookLevelFallsBackOutward(t *testing.T) {
	p := mustCompile(t, loopir.SOR(), Options{Dist: specSOR()})
	params := map[string]int{"n": 14, "maxiter": 3}
	// Absurdly expensive hooks: even level 0 fails the 1% rule, so the
	// outermost level is chosen as fallback.
	e, err := p.Instantiate(params, 5, Options{HookCostFlops: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if e.ActiveLevel != 0 {
		t.Fatalf("active level = %d, want 0 (fallback outermost)", e.ActiveLevel)
	}
	if len(e.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (one per sweep)", len(e.Phases))
	}
}

// TestCompileAllLibraryPrograms compiles every library program under the
// directive table the commands, experiments and examples share.
func TestCompileAllLibraryPrograms(t *testing.T) {
	for name, prog := range loopir.Library() {
		p, err := Compile(prog, Options{Dist: LibraryDist(name)})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Source == "" || p.HookCount == 0 {
			t.Errorf("%s: empty source or no hooks", name)
		}
	}
}

func TestCompilePeriodicSORStructure(t *testing.T) {
	p := mustCompile(t, loopir.PeriodicSOR(), Options{
		Dist: depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
	})
	outer := p.Steps[0].(*SeqLoop)
	// The boundary copies compile to owner blocks bracketed by broadcasts:
	// Bcast(read source) before, Bcast(written unit) after.
	var kinds []string
	for _, s := range outer.Body {
		switch s := s.(type) {
		case *Exchange:
			kinds = append(kinds, "exchange")
		case *Bcast:
			kinds = append(kinds, "bcast:"+s.Index.String())
		case *OwnerBlock:
			kinds = append(kinds, "owner:"+s.Index.String())
		case *StripLoop:
			kinds = append(kinds, "strip")
		case *Hook:
			kinds = append(kinds, "hook")
		}
	}
	want := []string{
		"exchange",
		"bcast:(n - 2)", "owner:0", "bcast:0",
		"bcast:1", "owner:(n - 1)", "bcast:(n - 1)",
		"strip", "hook",
	}
	if len(kinds) != len(want) {
		t.Fatalf("iter body = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("iter body = %v, want %v", kinds, want)
		}
	}
}

func TestCompileJacobiConvergeStructure(t *testing.T) {
	p := mustCompile(t, loopir.JacobiConverge(), Options{
		Dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
	})
	if len(p.Reductions) != 1 || p.Reductions[0].Array != "r" || p.Reductions[0].Op != '+' {
		t.Fatalf("reductions = %v, want sum over r", p.Reductions)
	}
	outer, ok := p.Steps[0].(*SeqLoop)
	if !ok || outer.BreakIf == nil {
		t.Fatalf("outer loop lost its break condition")
	}
	// The loop body must end with Combine(r) then the hook, so the break
	// condition sees globally combined residuals.
	nSteps := len(outer.Body)
	if _, ok := outer.Body[nSteps-1].(*Hook); !ok {
		t.Fatalf("last step = %T, want Hook", outer.Body[nSteps-1])
	}
	cb, ok := outer.Body[nSteps-2].(*Combine)
	if !ok || cb.Array != "r" {
		t.Fatalf("step before hook = %#v, want Combine(r)", outer.Body[nSteps-2])
	}
	// A final Combine also closes the program.
	if cb, ok := p.Steps[len(p.Steps)-1].(*Combine); !ok || cb.Array != "r" {
		t.Fatalf("program does not end with Combine(r): %#v", p.Steps[len(p.Steps)-1])
	}
	// Reductions are not "real" carried dependences: the stencil still has
	// ghost deltas, but LoopCarriedDeps must not be set by the reduction.
	if p.Props.LoopCarriedDeps {
		t.Error("reduction misclassified as a loop-carried dependence")
	}
	// The all_reduce and break rendering is pinned by
	// testdata/render_jacobi_converge.txt via TestRenderPlanGolden.
}

func TestCompileRejectsNonReductionReplicatedWrite(t *testing.T) {
	n := loopir.Iv("n")
	prog := &loopir.Program{
		Name:   "bad-repl",
		Params: []string{"n", "maxiter"},
		Arrays: []*loopir.ArrayDecl{
			{Name: "x", Dims: []loopir.IExpr{n}},
			{Name: "s", Dims: []loopir.IExpr{loopir.Ic(1)}},
		},
		Body: []loopir.Stmt{
			loopir.For("iter", loopir.Ic(0), loopir.Iv("maxiter"),
				loopir.For("i", loopir.Ic(0), n,
					loopir.Set(loopir.Fref("x", loopir.Iv("i")), loopir.Fc(1)),
					loopir.Set(loopir.Fref("s", loopir.Ic(0)), loopir.Fref("x", loopir.Iv("i"))))),
		},
	}
	_, err := Compile(prog, Options{Dist: depend.DistSpec{Dims: map[string]int{"x": 0}, Loops: []string{"i"}}})
	if err == nil || !strings.Contains(err.Error(), "reduction") {
		t.Fatalf("overwriting replicated data in a distributed loop accepted: %v", err)
	}
}

func TestCompileRejectsLoopVariantReductionTarget(t *testing.T) {
	n := loopir.Iv("n")
	prog := &loopir.Program{
		Name:   "bad-target",
		Params: []string{"n", "maxiter"},
		Arrays: []*loopir.ArrayDecl{
			{Name: "x", Dims: []loopir.IExpr{n}},
			{Name: "s", Dims: []loopir.IExpr{n}},
		},
		Body: []loopir.Stmt{
			loopir.For("iter", loopir.Ic(0), loopir.Iv("maxiter"),
				loopir.For("i", loopir.Ic(0), n,
					loopir.Set(loopir.Fref("x", loopir.Iv("i")), loopir.Fc(1)),
					loopir.Set(loopir.Fref("s", loopir.Iv("i")),
						loopir.Fadd(loopir.Fref("s", loopir.Iv("i")), loopir.Fc(1))))),
		},
	}
	_, err := Compile(prog, Options{Dist: depend.DistSpec{Dims: map[string]int{"x": 0}, Loops: []string{"i"}}})
	if err == nil || !strings.Contains(err.Error(), "loop-invariant") {
		t.Fatalf("loop-variant reduction target accepted: %v", err)
	}
}

func TestCompileRejectsDistributedBreakCondition(t *testing.T) {
	prog := loopir.SOR()
	prog.Body[0].(*loopir.Loop).BreakIf = &loopir.Cond{
		Op: "<", L: loopir.Fref("b", loopir.Ic(0), loopir.Ic(0)), R: loopir.Fc(0.5),
	}
	_, err := Compile(prog, Options{Dist: specSOR()})
	if err == nil || !strings.Contains(err.Error(), "distributed") {
		t.Fatalf("break condition on distributed data accepted: %v", err)
	}
}

func TestCompileRejectsBreakOnDistributedLoop(t *testing.T) {
	prog := loopir.MatMul()
	// Attach a break to the distributed loop j.
	prog.Body[0].(*loopir.Loop).Body[0].(*loopir.Loop).BreakIf = &loopir.Cond{
		Op: "<", L: loopir.Fc(0), R: loopir.Fc(1),
	}
	_, err := Compile(prog, Options{Dist: specMM()})
	if err == nil || !strings.Contains(err.Error(), "break") {
		t.Fatalf("break on distributed loop accepted: %v", err)
	}
}

// The distributed runtime fingerprints compiled plans (master and slave
// compile independently and compare hashes), so two compilations of the
// same program must render byte-identical sources.
func TestRenderPlanDeterministic(t *testing.T) {
	first := mustCompile(t, loopir.Library()["mm"], Options{Dist: specMM()}).Source
	for i := 0; i < 20; i++ {
		if src := mustCompile(t, loopir.Library()["mm"], Options{Dist: specMM()}).Source; src != first {
			t.Fatalf("compilation %d rendered a different source:\n--- first\n%s\n--- now\n%s", i, first, src)
		}
	}
}
