package compile

import (
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/lang"
)

// TestCompileRefusals gives every refusal raised while walking a program's
// statements — by Validate and by the compiler's passes — one minimal
// source program, and checks the error names it. dist is the command-line
// directive; the compiler derives the distributed loops from it.
func TestCompileRefusals(t *testing.T) {
	cases := []struct {
		name, dist, src, want string
	}{
		{
			name: "multiple owners",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter {
    for i = 0 to n { a[i] = a[i] + 1; }
    if a[0] > 0 { a[0] = 1; a[1] = 2; }
}`,
			want: "writes multiple owners (0 vs 1)",
		},
		{
			name: "owner block writes a replicated array",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
array s[1];
for iter = 0 to maxiter {
    for i = 0 to n { a[i] = a[i] + 1; }
    if a[0] > 0 { a[0] = 1; s[0] = 2; }
}`,
			want: `owner block writes replicated array "s"`,
		},
		{
			name: "block-internal index read",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter {
    for i = 0 to n { a[i] = a[i] + 1; }
    for k = 0 to n { a[0] = a[0] + a[k]; }
}`,
			want: "reads a[k] with a block-internal index",
		},
		{
			// The owner broadcast of b[j][*] would run before the loop
			// that binds j.
			name: "loop-internal index read",
			dist: "a:0,b:0",
			src: `program p(n, maxiter)
array a[n][n];
array b[n][n];
for iter = 0 to maxiter {
    for i = 0 to n {
        for j = 0 to n { a[i][j] = b[j][i] + 1; }
    }
}`,
			want: `distributed loop "i" reads b[j][i] with a loop-internal index`,
		},
		{
			name: "distributed loop in an unsupported context",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter {
    if a[0] > 0 {
        for i = 0 to n { a[i] = a[i] + 1; }
    }
}`,
			want: `distributed loop "i" nested in unsupported context`,
		},
		{
			name: "write not owner-computes",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter {
    for i = 0 to n-1 { a[i+1] = a[i]; }
}`,
			want: `write a[(i + 1)] is not owner-computes for loop "i"`,
		},
		{
			name: "ghost offset beyond one",
			dist: "a:0,b:0",
			src: `program p(n, maxiter)
array a[n];
array b[n];
for iter = 0 to maxiter {
    for i = 2 to n { b[i] = a[i-2]; }
}`,
			want: "ghost offset -2 of a[(i - 2)] unsupported",
		},
		{
			name: "non-affine distributed subscript",
			dist: "a:0,b:0",
			src: `program p(n, maxiter)
array a[n];
array b[n];
for iter = 0 to maxiter {
    for i = 0 to 3 { b[i] = a[i*i]; }
}`,
			want: "non-affine distributed subscript a[(i * i)]",
		},
		{
			name: "break condition reads a distributed array",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter until a[0] < 1 {
    for i = 0 to n { a[i] = a[i] + 1; }
}`,
			want: `break condition reads distributed array "a"`,
		},
		{
			name: "loop variable shadows a loop",
			dist: "a:0",
			src: `program p(n)
array a[n];
for i = 0 to n {
    for i = 0 to n { a[i] = 1; }
}`,
			want: `loop variable "i" shadows an enclosing loop`,
		},
		{
			name: "loop variable shadows a parameter",
			dist: "a:0",
			src: `program p(n)
array a[4];
for n = 0 to 4 { a[n] = 1; }`,
			want: `loop variable "n" shadows a parameter`,
		},
		{
			name: "write to an index array",
			dist: "a:0",
			src: `program p(n)
array a[n];
array idx[n];
for i = 0 to n {
    a[idx[i]] = 1;
    idx[i] = 0;
}`,
			want: `array "idx" is read as an index and must be read-only`,
		},
		{
			name: "unbound variable",
			dist: "a:0",
			src: `program p(n)
array a[n];
for i = 0 to n { a[k] = 1; }`,
			want: `unbound variable "k"`,
		},
		{
			// Two refusals in one statement group: the multiple-owner write
			// nested in the first loop comes before the distributed loop in
			// program order, so it is the one reported.
			name: "first violation in program order",
			dist: "a:0",
			src: `program p(n, maxiter)
array a[n];
for iter = 0 to maxiter {
    if a[0] > 0 {
        for k = 0 to 1 { a[0] = 1; a[1] = 2; }
        for i = 0 to n { a[i] = a[i] + 1; }
    }
}`,
			want: "writes multiple owners (0 vs 1)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := depend.ParseDist(tc.dist)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(tc.src)
			if err == nil {
				_, err = Compile(prog, Options{Dist: spec})
			}
			if err == nil {
				t.Fatalf("accepted; want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
