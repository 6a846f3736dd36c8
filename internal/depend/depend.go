// Package depend performs data-dependence analysis on loopir programs.
//
// The paper's load balancer "explicitly consider[s] application data
// dependences and loop structure"; this package supplies that knowledge:
// which loops carry dependences (forcing restricted, block-preserving work
// movement and pipelined execution), which dependences cross the distributed
// dimension outside the distributed loop (requiring boundary exchanges or
// broadcasts each outer iteration), and the six Table 1 application
// properties.
//
// The analysis has one engine, a concrete one. Analyze collects a program's
// references; DepsFor, once per directive, runs small instances of the
// program on loopir's reference interpreter, which reports every data
// access (Instance.InterpretObserved), and generalizes the observed
// dependence distance vectors over two sample sizes — which covers uniform
// pairs and non-uniform ones (LU's pivot references) alike. What the
// analysis says a program accesses thus comes from the code that defines
// what it computes; there is no second interpreter to drift. The classic
// symbolic machinery for uniformly generated pairs (distance equations, the
// GCD test) lives in the tests, as the oracle the concrete results are
// checked against.
package depend

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/loopir"
)

// Kind classifies a dependence.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write then read (true dependence)
	Anti               // read then write
	Output             // write then write
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return "?"
}

// Constraint describes the possible distance of a dependence at one loop.
type Constraint struct {
	Any bool // distance varies between instances
	D   int  // fixed distance when !Any
}

func (c Constraint) String() string {
	if c.Any {
		return "*"
	}
	return fmt.Sprintf("%+d", c.D)
}

// Dep is one dependence edge between two references, attributed to the loop
// that carries it. A single reference pair may yield several Dep entries,
// one per carrying loop observed.
type Dep struct {
	Array    string
	Kind     Kind
	Carrier  string     // carrying loop variable; "" if loop-independent
	Distance Constraint // distance at the carrier loop (meaningless if Carrier == "")
	// PerLoop gives the distance constraint at every common loop of the two
	// references, aggregated over the dependence instances with this
	// carrier. The compiler uses it to ask, e.g., whether a dependence
	// carried by an outer loop relates different indices of the distributed
	// loop (which means boundary communication every outer iteration).
	PerLoop map[string]Constraint
	// CommonLoops lists the loops common to both references, outermost
	// first.
	CommonLoops []string
	// CrossOwner reports whether some instance of this dependence connects
	// iterations executed by different owners of the distributed dimension.
	// Only meaningful under a directive that distributes arrays (DepsFor);
	// such dependences require communication.
	CrossOwner bool
	// Src and Dst are the textual references (source executes first).
	Src, Dst loopir.Ref
	// SrcStmt and DstStmt are statement ids in program order.
	SrcStmt, DstStmt int
}

// At returns the distance constraint of this dependence at the given loop.
// ok is false when the loop is not common to both endpoints.
func (d Dep) At(loop string) (Constraint, bool) {
	c, ok := d.PerLoop[loop]
	return c, ok
}

func (d Dep) String() string {
	carrier := d.Carrier
	if carrier == "" {
		carrier = "independent"
	}
	parts := make([]string, 0, len(d.CommonLoops))
	for _, l := range d.CommonLoops {
		parts = append(parts, fmt.Sprintf("%s:%s", l, d.PerLoop[l]))
	}
	return fmt.Sprintf("%s dep on %q: %s -> %s carried by %s (%s)",
		d.Kind, d.Array, d.Src.String(), d.Dst.String(), carrier, strings.Join(parts, " "))
}

// LoopCtx records one enclosing loop of a reference.
type LoopCtx struct {
	Var    string
	Lo, Hi loopir.IExpr
}

// RefCtx is a reference together with its nest context.
type RefCtx struct {
	Ref    loopir.Ref
	Write  bool
	Loops  []LoopCtx // outermost first
	StmtID int
	RefIdx int // position among the statement's reads (writes use -1)
}

// Analysis holds what the dependence analysis knows of one program before
// any directive: its references and the sample sizes DepsFor traces it at.
type Analysis struct {
	Prog    *loopir.Program
	Refs    []RefCtx
	stmts   map[loopir.Stmt]stmtRefs
	samples []map[string]int
}

// stmtRefs locates one Assign's or If's references in Analysis.Refs: read
// ord is Refs[first+ord] for ord < reads, an Assign's write Refs[first+reads].
type stmtRefs struct{ id, first, reads int }

// Analyze validates the program, collects its references and picks two
// small sample parameter bindings (9/6 for every size-like parameter, 3/2
// for iteration counts). It runs nothing: DepsFor traces the samples, once
// per directive.
func Analyze(p *loopir.Program) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{Prog: p, stmts: map[loopir.Stmt]stmtRefs{}, samples: defaultSamples(p)}
	a.collectRefs()
	return a, nil
}

// DistSpec describes a data distribution: which dimension of which arrays
// is distributed, and the loop variables that scan that dimension in each
// updating loop nest (usually one; Jacobi-style programs have one per
// nest). It corresponds to the data alignment and distribution directives
// that Fortran D-style compilers take from the programmer.
type DistSpec struct {
	// Dims maps distributed array names to their distributed dimension.
	Dims map[string]int
	// Loops are the distributed loop variables, one per updating nest,
	// first is primary.
	Loops []string
}

// ParseDist reads the command-line form of a directive, "array:dim" entries
// separated by commas. It names no loops: the compiler finds the loops that
// scan the distributed dimensions.
func ParseDist(s string) (DistSpec, error) {
	spec := DistSpec{Dims: map[string]int{}}
	for _, part := range strings.Split(s, ",") {
		arr, dimText, ok := strings.Cut(part, ":")
		dim, err := strconv.Atoi(dimText)
		if !ok || arr == "" || err != nil {
			return DistSpec{}, fmt.Errorf("bad distribution entry %q (want array:dim)", part)
		}
		spec.Dims[arr] = dim
	}
	return spec, nil
}

// Primary returns the primary distributed loop variable.
func (s DistSpec) Primary() string {
	if len(s.Loops) == 0 {
		return ""
	}
	return s.Loops[0]
}

// defaultSamples picks two small parameter bindings. Parameters named like
// iteration counts get small values; everything else gets a matrix size.
func defaultSamples(p *loopir.Program) []map[string]int {
	mk := func(size, iters int) map[string]int {
		m := map[string]int{}
		for _, prm := range p.Params {
			if strings.Contains(prm, "iter") {
				m[prm] = iters
			} else {
				m[prm] = size
			}
		}
		return m
	}
	return []map[string]int{mk(9, 3), mk(6, 2)}
}

// collectRefs numbers the program's Assign and If statements in program
// order and files their references in a.Refs: the reads in the order the
// interpreter reports them, then an Assign's write.
func (a *Analysis) collectRefs() {
	id := 0
	loopir.Walk(a.Prog.Body, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if _, ok := s.(*loopir.Loop); ok {
			return nil
		}
		var ctx []LoopCtx
		for _, l := range loops {
			ctx = append(ctx, LoopCtx{l.Var, l.Lo, l.Hi})
		}
		sr := stmtRefs{id: id, first: len(a.Refs)}
		id++
		loopir.Reads(s, func(r loopir.Ref) error {
			a.Refs = append(a.Refs, RefCtx{Ref: r, Loops: ctx, StmtID: sr.id, RefIdx: sr.reads})
			sr.reads++
			return nil
		})
		if as, ok := s.(*loopir.Assign); ok {
			a.Refs = append(a.Refs, RefCtx{Ref: as.LHS, Write: true, Loops: ctx, StmtID: sr.id, RefIdx: -1})
		}
		a.stmts[s] = sr
		return nil
	})
}

// WrittenArrays returns the names of arrays that are written, sorted.
func (a *Analysis) WrittenArrays() []string {
	set := map[string]bool{}
	for _, r := range a.Refs {
		if r.Write {
			set[r.Ref.Array] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// commonLoops returns loop variables common to both contexts, outermost
// first, following the source's order (common prefixes share order anyway).
func commonLoops(a, b []LoopCtx) []string {
	inB := map[string]bool{}
	for _, l := range b {
		inB[l.Var] = true
	}
	var out []string
	for _, l := range a {
		if inB[l.Var] {
			out = append(out, l.Var)
		}
	}
	return out
}
