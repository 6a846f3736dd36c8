package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro/internal/depend"
)

// Every workload starts from source text in the repo's loop language. The
// seed chooses the array initializers (and, per workload, which slave is
// slowed or which jobs are drawn); the program under test sees only the
// text and parameters generated here.

// kernelSource is one program family: the text with %NAME% and %S1%, %S2%
// placeholders, and the distribution directive a programmer would give.
type kernelSource struct {
	family string
	text   string
	dist   depend.DistSpec
}

var sources = map[string]kernelSource{
	"mm": {
		family: "mm",
		text: `program %NAME%(n)
array a[n][n] init hash(%S1%);
array b[n][n] init hash(%S2%);
array c[n][n];
for i = 0 to n {
    for j = 0 to n {
        for k = 0 to n {
            c[i][j] = c[i][j] + a[i][k] * b[k][j];
        }
    }
}
`,
		dist: depend.DistSpec{Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}},
	},
	"jacobi": {
		family: "jacobi",
		text: `program %NAME%(n, maxiter)
array a[n][n] init hash(%S1%);
array anew[n][n];
for iter = 0 to maxiter {
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            anew[i][j] = 0.25 * ((a[i-1][j] + a[i+1][j]) + (a[i][j-1] + a[i][j+1]));
        }
    }
    for i2 = 1 to n-1 {
        for j2 = 1 to n-1 {
            a[i2][j2] = anew[i2][j2];
        }
    }
}
`,
		dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
	},
	"sor": {
		family: "sor",
		text: `program %NAME%(n, maxiter)
array b[n][n] init hash(%S1%);
for iter = 0 to maxiter {
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            b[j][i] = 0.493 * ((b[j][i-1] + b[j-1][i]) + (b[j][i+1] + b[j+1][i])) - 0.972 * b[j][i];
        }
    }
}
`,
		dist: depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
	},
	// diagdom(v) adds v on the diagonal so elimination needs no pivoting;
	// the seed varies v instead of a hash salt.
	"lu": {
		family: "lu",
		text: `program %NAME%(n)
array a[n][n] init diagdom(%S1%);
for k = 0 to n {
    for i = k+1 to n {
        a[i][k] = a[i][k] / a[k][k];
    }
    for j = k+1 to n {
        for ii = k+1 to n {
            a[ii][j] = a[ii][j] - a[ii][k] * a[k][j];
        }
    }
}
`,
		dist: depend.DistSpec{Dims: map[string]int{"a": 1}, Loops: []string{"j"}},
	},
}

// render fills the placeholders. name must be a valid identifier; it ends
// up in the emitted AOT source, so distinct names give distinct native
// artifacts (which is how set-up is repeated cold within one process).
func (k kernelSource) render(name string, rng *rand.Rand) string {
	s1, s2 := 1+rng.Intn(1<<16), 1+rng.Intn(1<<16)
	if k.family == "lu" {
		s1 = 4 + rng.Intn(4)
	}
	return strings.NewReplacer(
		"%NAME%", name,
		"%S1%", fmt.Sprint(s1),
		"%S2%", fmt.Sprint(s2),
	).Replace(k.text)
}

// rename gives the same program another name.
func rename(src, from, to string) string {
	return strings.Replace(src, "program "+from+"(", "program "+to+"(", 1)
}

var artifactSeq atomic.Int64

// uniqueName returns a program name no earlier call in this process
// returned. The name reaches the emitted AOT source and so its cache key
// and plugin path: a build under a fresh name cannot be served by the
// in-process memo or collide with a plugin already loaded.
func uniqueName(base string) string {
	return fmt.Sprintf("%s_u%d", base, artifactSeq.Add(1))
}
