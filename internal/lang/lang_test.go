package lang_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

const sorSrc = `
program sor(n, maxiter)
array b[n][n] init hash(3);
// Gauss-Seidel style overrelaxation, the paper's Figure 3a kernel.
for iter = 0 to maxiter {
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            // Grouping matches the built-in program exactly, so even
            // floating-point rounding is identical.
            b[j][i] = 0.493*((b[j][i-1] + b[j-1][i]) + (b[j][i+1] + b[j+1][i]))
                      + -0.972*b[j][i];
        }
    }
}
`

func TestParseSORMatchesBuiltin(t *testing.T) {
	parsed, err := lang.Parse(sorSrc)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 14, "maxiter": 3}
	in1, err := loopir.NewInstance(parsed, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := in1.Run(); err != nil {
		t.Fatal(err)
	}
	in2, err := loopir.NewInstance(loopir.SOR(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	if d := in1.Arrays["b"].MaxAbsDiff(in2.Arrays["b"]); d != 0 {
		t.Fatalf("parsed SOR differs from built-in by %g", d)
	}
}

func TestParsedProgramCompiles(t *testing.T) {
	parsed, err := lang.Parse(sorSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile.Compile(parsed, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Restricted || !plan.StripMined {
		t.Error("parsed SOR should compile to a restricted, strip-mined plan")
	}
}

func TestParseMM(t *testing.T) {
	src := `
program mm(n)
array a[n][n] init hash(1);
array b[n][n] init hash(2);
array c[n][n] init zero;
for i = 0 to n {
    for j = 0 to n {
        for k = 0 to n {
            c[i][j] = c[i][j] + a[i][k]*b[k][j];
        }
    }
}
`
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 9}
	in1, _ := loopir.NewInstance(parsed, params)
	in2, _ := loopir.NewInstance(loopir.MatMul(), params)
	if err := in1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	if d := in1.Arrays["c"].MaxAbsDiff(in2.Arrays["c"]); d != 0 {
		t.Fatalf("parsed MM differs from built-in by %g", d)
	}
}

func TestParseIf(t *testing.T) {
	src := `
program thresh(n)
array v[n] init hash(6);
for i = 0 to n {
    if v[i] > 0.5 {
        v[i] = v[i] * 0.5;
    } else {
        v[i] = v[i] + 0.25;
    }
}
`
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := loopir.NewInstance(parsed, map[string]int{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range in.Arrays["v"].Data {
		if v > 0.75 {
			t.Fatalf("threshold not applied: %v", v)
		}
	}
}

func TestParseDiagdomInit(t *testing.T) {
	src := `
program lu(n)
array a[n][n] init diagdom(4.0);
for k = 0 to n {
    for i = k+1 to n {
        a[i][k] = a[i][k] / a[k][k];
    }
    for j = k+1 to n {
        for ii = k+1 to n {
            a[ii][j] = a[ii][j] - a[ii][k]*a[k][j];
        }
    }
}
`
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 10}
	in1, _ := loopir.NewInstance(parsed, params)
	in2, _ := loopir.NewInstance(loopir.LU(), params)
	if err := in1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	if d := in1.Arrays["a"].MaxAbsDiff(in2.Arrays["a"]); d != 0 {
		t.Fatalf("parsed LU differs from built-in by %g", d)
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"program", "expected identifier"},
		{"program p(n) array a;", "at least one dimension"},
		{"program p(n) array a[n]; a[0] = @;", "unexpected character"},
		{"program p(n) array a[n]; for i = 0 to n { a[i] = 1; ", "unterminated block"},
		{"program p(n) array a[n] init wild;", "unknown initializer"},
		{"program p(n) array a[n]; a = 1;", "needs subscripts"},
		{"program p(n) array a[n]; if a[0] ~ 1 { }", "unexpected character"},
		{"program p(n) array a[n]; for i = 0 to n { a[q] = 1; }", "unbound"},
	}
	for _, tc := range cases {
		_, err := lang.Parse(tc.src)
		if err == nil {
			t.Errorf("lang.Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("lang.Parse(%q) error = %q, want substring %q", tc.src, err.Error(), tc.want)
		}
	}
}

func TestParseErrorPositionAccurate(t *testing.T) {
	src := "program p(n)\narray a[n];\nfor i = 0 to n {\n    a[i] = $;\n}\n"
	_, err := lang.Parse(src)
	pe, ok := err.(*lang.Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if pe.Line != 4 {
		t.Fatalf("error line = %d, want 4", pe.Line)
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := "// header\nprogram p(n) // trailing\narray a[n]; // decl\nfor i = 0 to n { a[i] = 1; } // body\n"
	if _, err := lang.Parse(src); err != nil {
		t.Fatal(err)
	}
}

// TestFormatRoundTripBuiltins: every library program survives format →
// parse, as text and as data — the reparsed program's initial arrays equal
// the library's bit for bit, which is what lets a daemon that recompiles
// the text stand in for the process that holds the program.
func TestFormatRoundTripBuiltins(t *testing.T) {
	for name, prog := range loopir.Library() {
		src := lang.Format(prog)
		parsed, err := lang.Parse(src)
		if err != nil {
			t.Errorf("%s: reparse failed: %v\n%s", name, err, src)
			continue
		}
		if again := lang.Format(parsed); again != src {
			t.Errorf("%s: format not idempotent:\n--- first\n%s\n--- second\n%s", name, src, again)
		}
		params := map[string]int{"n": 40, "maxiter": 1}
		want, err := loopir.NewInstance(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loopir.NewInstance(parsed, params)
		if err != nil {
			t.Fatal(err)
		}
		for arr, w := range want.Arrays {
			if d := w.MaxAbsDiff(got.Arrays[arr]); d != 0 {
				t.Errorf("%s: reparsed array %s starts %g away from the library's", name, arr, d)
			}
		}
	}
}

func TestFormatRoundTripQuick(t *testing.T) {
	// Random affine programs survive a format -> parse -> format cycle.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randProgram(r)
		src := lang.Format(prog)
		parsed, err := lang.Parse(src)
		if err != nil {
			return false
		}
		return lang.Format(parsed) == src
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randProgram builds a small random valid program (mirrors the loopir
// quick-test generator, but expressed through the public constructors).
func randProgram(r *rand.Rand) *loopir.Program {
	n := loopir.Iv("n")
	vars := []string{"i", "j", "k"}[:1+r.Intn(3)]
	idx := func() loopir.IExpr {
		v := loopir.Iv(vars[r.Intn(len(vars))])
		switch r.Intn(3) {
		case 0:
			return loopir.Isub(v, loopir.Ic(1))
		case 1:
			return loopir.Iadd(v, loopir.Ic(1))
		}
		return v
	}
	ref := func() loopir.Ref { return loopir.Fref("a", idx(), idx()) }
	var expr func(d int) loopir.Expr
	expr = func(d int) loopir.Expr {
		if d == 0 || r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return loopir.Fc(float64(r.Intn(9)) * 0.25)
			}
			return ref()
		}
		ops := []func(loopir.Expr, loopir.Expr) loopir.Expr{loopir.Fadd, loopir.Fsub, loopir.Fmul}
		return ops[r.Intn(len(ops))](expr(d-1), expr(d-1))
	}
	body := []loopir.Stmt{loopir.Set(ref(), expr(2))}
	var stmt loopir.Stmt
	for d := len(vars) - 1; d >= 0; d-- {
		if stmt != nil {
			body = []loopir.Stmt{stmt}
		}
		stmt = loopir.For(vars[d], loopir.Ic(1), loopir.Isub(n, loopir.Ic(1)), body...)
	}
	return &loopir.Program{
		Name:   "rand",
		Params: []string{"n"},
		Arrays: []*loopir.ArrayDecl{{Name: "a", Dims: []loopir.IExpr{n, n}}},
		Body:   []loopir.Stmt{stmt},
	}
}

func TestParseUntil(t *testing.T) {
	src := `
program conv(n, maxiter)
array v[n] init hash(6);
array r[1] init zero;
for iter = 0 to maxiter until r[0] < 0.001 {
    r[0] = 0;
    for i = 1 to n-1 {
        v[i] = 0.5*(v[i-1] + v[i+1]);
        r[0] = r[0] + v[i]*v[i];
    }
}
`
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := parsed.Body[0].(*loopir.Loop)
	if !ok || loop.BreakIf == nil {
		t.Fatal("until clause not parsed into BreakIf")
	}
	if loop.BreakIf.Op != "<" {
		t.Fatalf("op = %q, want <", loop.BreakIf.Op)
	}
	// Round trip preserves the clause.
	again, err := lang.Parse(lang.Format(parsed))
	if err != nil {
		t.Fatal(err)
	}
	if again.Body[0].(*loopir.Loop).BreakIf == nil {
		t.Fatal("until lost in format round trip")
	}
}

func TestFormatRoundTripConvergeProgram(t *testing.T) {
	src := lang.Format(loopir.JacobiConverge())
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, src)
	}
	if lang.Format(parsed) != src {
		t.Fatal("format not idempotent for jacobi-converge")
	}
}
