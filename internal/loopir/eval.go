package loopir

import (
	"fmt"
	"math"
)

// Array is dense row-major float64 storage for one program array.
type Array struct {
	Name   string
	Dims   []int
	Stride []int // Stride[d] = product of Dims[d+1:]
	Data   []float64
}

// NewArray allocates a zeroed array with the given extents.
func NewArray(name string, dims []int) *Array {
	if len(dims) == 0 {
		panic("loopir: array needs at least one dimension")
	}
	size := 1
	stride := make([]int, len(dims))
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] <= 0 {
			panic(fmt.Sprintf("loopir: array %q has non-positive extent %d", name, dims[d]))
		}
		stride[d] = size
		size *= dims[d]
	}
	return &Array{Name: name, Dims: append([]int(nil), dims...), Stride: stride, Data: make([]float64, size)}
}

// Flat converts a multi-dimensional index to a flat offset, with bounds
// checking.
func (a *Array) Flat(idx ...int) int {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("loopir: array %q rank %d indexed with %d subscripts", a.Name, len(a.Dims), len(idx)))
	}
	flat := 0
	for d, ix := range idx {
		if ix < 0 || ix >= a.Dims[d] {
			panic(fmt.Sprintf("loopir: array %q index %d out of range [0,%d) in dim %d", a.Name, ix, a.Dims[d], d))
		}
		flat += ix * a.Stride[d]
	}
	return flat
}

// At reads one element.
func (a *Array) At(idx ...int) float64 { return a.Data[a.Flat(idx...)] }

// SetAt writes one element.
func (a *Array) SetAt(v float64, idx ...int) { a.Data[a.Flat(idx...)] = v }

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	b := NewArray(a.Name, a.Dims)
	copy(b.Data, a.Data)
	return b
}

// Fill sets every element from fn (nil zeroes the array).
func (a *Array) Fill(fn InitFn) {
	if fn == nil {
		for i := range a.Data {
			a.Data[i] = 0
		}
		return
	}
	idx := make([]int, len(a.Dims))
	for flat := range a.Data {
		rem := flat
		for d := range a.Dims {
			idx[d] = rem / a.Stride[d]
			rem %= a.Stride[d]
		}
		a.Data[flat] = fn(idx)
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped arrays.
func (a *Array) MaxAbsDiff(b *Array) float64 {
	if len(a.Data) != len(b.Data) {
		panic("loopir: MaxAbsDiff on differently-shaped arrays")
	}
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Instance binds a Program to concrete parameter values and allocated,
// initialized arrays. It is the unit that gets executed — sequentially by
// Run (the correctness reference) or in parallel by the generated code.
type Instance struct {
	Prog   *Program
	Params map[string]int
	Arrays map[string]*Array
}

// NewInstance validates the program, checks that every parameter is bound,
// and allocates + initializes all arrays.
func NewInstance(p *Program, params map[string]int) (*Instance, error) {
	return newInstance(p, params, true)
}

// NewZeroInstance is NewInstance with every array left zeroed instead of
// run through its init function: for an instance whose contents arrive
// from elsewhere (a slave's private copy, filled by the scatter).
func NewZeroInstance(p *Program, params map[string]int) (*Instance, error) {
	return newInstance(p, params, false)
}

func newInstance(p *Program, params map[string]int, init bool) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bound := map[string]int{}
	for _, prm := range p.Params {
		v, ok := params[prm]
		if !ok {
			return nil, fmt.Errorf("%s: parameter %q not bound", p.Name, prm)
		}
		bound[prm] = v
	}
	in := &Instance{Prog: p, Params: bound, Arrays: map[string]*Array{}}
	for _, decl := range p.Arrays {
		dims := make([]int, len(decl.Dims))
		for d, de := range decl.Dims {
			v, err := EvalIndex(de, bound)
			if err != nil {
				return nil, fmt.Errorf("%s: array %q dim %d: %v", p.Name, decl.Name, d, err)
			}
			if v <= 0 {
				return nil, fmt.Errorf("%s: array %q dim %d evaluates to %d", p.Name, decl.Name, d, v)
			}
			dims[d] = v
		}
		arr := NewArray(decl.Name, dims)
		if init {
			arr.Fill(decl.Init)
		}
		in.Arrays[decl.Name] = arr
	}
	return in, nil
}

// Clone returns an instance with freshly initialized arrays (initial values,
// not current contents). Use it to rerun the same problem.
func (in *Instance) Clone() *Instance {
	fresh, err := NewInstance(in.Prog, in.Params)
	if err != nil {
		panic(err) // validated once already
	}
	return fresh
}

// Snapshot deep-copies the current array contents.
func (in *Instance) Snapshot() map[string]*Array {
	out := map[string]*Array{}
	for name, a := range in.Arrays {
		out[name] = a.Clone()
	}
	return out
}

// EvalIndex evaluates an integer index expression under an environment of
// parameter and loop-variable bindings.
func EvalIndex(e IExpr, env map[string]int) (int, error) {
	switch e := e.(type) {
	case ICon:
		return int(e), nil
	case IVar:
		v, ok := env[string(e)]
		if !ok {
			return 0, fmt.Errorf("unbound index variable %q", string(e))
		}
		return v, nil
	case IBin:
		l, err := EvalIndex(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := EvalIndex(e.R, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		}
		return 0, fmt.Errorf("bad index op %q", string(e.Op))
	}
	return 0, fmt.Errorf("unknown index expression %T", e)
}

// EvalIndex evaluates an index expression against the instance: the
// package-level evaluation extended with IArr data-array reads (truncated
// toward zero), which have no meaning without bound arrays.
func (in *Instance) EvalIndex(e IExpr, env map[string]int) (int, error) {
	switch e := e.(type) {
	case IBin:
		l, err := in.EvalIndex(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := in.EvalIndex(e.R, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		}
		return 0, fmt.Errorf("bad index op %q", string(e.Op))
	case IArr:
		arr, ok := in.Arrays[e.Array]
		if !ok {
			return 0, fmt.Errorf("index read of unknown array %q", e.Array)
		}
		idx := make([]int, len(e.Idx))
		for d, ie := range e.Idx {
			v, err := in.EvalIndex(ie, env)
			if err != nil {
				return 0, err
			}
			idx[d] = v
		}
		return int(arr.At(idx...)), nil
	}
	return EvalIndex(e, env)
}

// EvalExpr evaluates a data expression against the instance's arrays.
func (in *Instance) EvalExpr(e Expr, env map[string]int) (float64, error) {
	switch e := e.(type) {
	case Const:
		return float64(e), nil
	case Ref:
		arr, ok := in.Arrays[e.Array]
		if !ok {
			return 0, fmt.Errorf("unknown array %q", e.Array)
		}
		idx := make([]int, len(e.Idx))
		for d, ie := range e.Idx {
			v, err := in.EvalIndex(ie, env)
			if err != nil {
				return 0, err
			}
			idx[d] = v
		}
		return arr.At(idx...), nil
	case Bin:
		l, err := in.EvalExpr(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := in.EvalExpr(e.R, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		}
		return 0, fmt.Errorf("bad arithmetic op %q", string(e.Op))
	}
	return 0, fmt.Errorf("unknown expression %T", e)
}

// EvalCond evaluates a comparison against the instance's arrays.
func (in *Instance) EvalCond(c Cond, env map[string]int) (bool, error) {
	l, err := in.EvalExpr(c.L, env)
	if err != nil {
		return false, err
	}
	r, err := in.EvalExpr(c.R, env)
	if err != nil {
		return false, err
	}
	return Compare(c.Op, l, r)
}

// Compare applies a comparison operator — the one place the six are
// interpreted (the kernel compiler lowers them to opcodes instead).
func Compare(op string, l, r float64) (bool, error) {
	switch op {
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	case "==":
		return l == r, nil
	case "!=":
		return l != r, nil
	}
	return false, fmt.Errorf("bad comparison op %q", op)
}

// Interpret executes the program with the straightforward tree-walking
// interpreter. It is the semantic reference that the compiled kernels (and
// the parallel runtime) are validated against.
func (in *Instance) Interpret() error {
	env := map[string]int{}
	for k, v := range in.Params {
		env[k] = v
	}
	return in.interpretStmts(in.Prog.Body, env)
}

func (in *Instance) interpretStmts(stmts []Stmt, env map[string]int) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err := in.EvalIndex(s.Lo, env)
			if err != nil {
				return err
			}
			hi, err := in.EvalIndex(s.Hi, env)
			if err != nil {
				return err
			}
			for v := lo; v < hi; v++ {
				env[s.Var] = v
				if err := in.interpretStmts(s.Body, env); err != nil {
					return err
				}
				if s.BreakIf != nil {
					stop, err := in.EvalCond(*s.BreakIf, env)
					if err != nil {
						return err
					}
					if stop {
						break
					}
				}
			}
			delete(env, s.Var)
		case *Assign:
			val, err := in.EvalExpr(s.RHS, env)
			if err != nil {
				return err
			}
			arr := in.Arrays[s.LHS.Array]
			if arr == nil {
				return fmt.Errorf("unknown array %q", s.LHS.Array)
			}
			idx := make([]int, len(s.LHS.Idx))
			for d, ie := range s.LHS.Idx {
				iv, err := in.EvalIndex(ie, env)
				if err != nil {
					return err
				}
				idx[d] = iv
			}
			arr.SetAt(val, idx...)
		case *If:
			ok, err := in.EvalCond(s.Cond, env)
			if err != nil {
				return err
			}
			if ok {
				err = in.interpretStmts(s.Then, env)
			} else {
				err = in.interpretStmts(s.Else, env)
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

// InterpFragment runs a statement list through the tree-walking
// interpreter under a caller-supplied binding — the oracle the "interp"
// tier runs everything on, and the fallback for fragments the kernel
// compiler refuses (data-dependent IArr subscripts and bounds). It
// satisfies the same Run contract as a Kernel.
type InterpFragment struct {
	In    *Instance
	Stmts []Stmt
}

// Run executes the fragment with bind layered over the instance parameters.
func (f *InterpFragment) Run(bind map[string]int) {
	env := map[string]int{}
	for k, v := range f.In.Params {
		env[k] = v
	}
	for k, v := range bind {
		env[k] = v
	}
	if err := f.In.interpretStmts(f.Stmts, env); err != nil {
		panic(fmt.Sprintf("loopir: interpreted fragment: %v", err))
	}
}

// Run executes the program on the compiled kernel, falling back to the
// interpreter for programs the kernel compiler refuses (non-affine
// subscripts).
func (in *Instance) Run() error {
	if err := in.RunKernel(); err == nil {
		return nil
	}
	return in.Interpret()
}
