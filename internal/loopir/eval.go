package loopir

import (
	"fmt"
	"maps"
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
	// Frame lays out the integer frame the instance's kernels read their
	// free variables from.
	Frame Frame
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
	in := &Instance{Prog: p, Params: bound, Arrays: map[string]*Array{}, Frame: Frame{}}
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
// parameter and loop-variable bindings: the instance-free case of
// (*Instance).EvalIndex, so an index-array read (IArr) is an error.
func EvalIndex(e IExpr, env map[string]int) (int, error) {
	return (*Instance)(nil).EvalIndex(e, env)
}

// EvalIndex evaluates an index expression against the instance, reading
// IArr index arrays from its data (truncated toward zero). A nil instance
// has no arrays to read.
func (in *Instance) EvalIndex(e IExpr, env map[string]int) (int, error) {
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
		if in == nil {
			break
		}
		arr, flat, err := in.offset(e.Array, e.Idx, env)
		if err != nil {
			return 0, err
		}
		return int(arr.Data[flat]), nil
	}
	return 0, fmt.Errorf("unknown index expression %T", e)
}

// offset resolves array[idx...] under env to the array and the element's
// flat offset (Array.offset).
func (in *Instance) offset(array string, idx []IExpr, env map[string]int) (*Array, int, error) {
	arr := in.Arrays[array]
	if arr == nil {
		return nil, 0, fmt.Errorf("unknown array %q", array)
	}
	if len(idx) != len(arr.Dims) {
		return nil, 0, fmt.Errorf("array %q rank %d indexed with %d subscripts", array, len(arr.Dims), len(idx))
	}
	flat, err := arr.offset(func(d int) (int, error) { return in.EvalIndex(idx[d], env) })
	return arr, flat, err
}

// offset is the flat offset of the element whose subscript in dimension d
// is sub(d): the one bounds check of every interpreted data read, write
// and index-array read, a lowered one's (Frame.Index) included.
func (arr *Array) offset(sub func(d int) (int, error)) (int, error) {
	flat := 0
	for d, n := range arr.Dims {
		v, err := sub(d)
		if err != nil {
			return 0, err
		}
		if v < 0 || v >= n {
			return 0, fmt.Errorf("array %q index %d out of range [0,%d) in dim %d", arr.Name, v, n, d)
		}
		flat += v * arr.Stride[d]
	}
	return flat, nil
}

// Observer is told of each data access InterpretObserved makes. s is the
// executing *Assign or *If. ord numbers the statement's data reads 0, 1, …
// in evaluation order (an Assign's right-hand side; an If's condition, left
// operand first) and is -1 for an Assign's write, reported after its reads.
// flat is the element's offset in the array's Data, and env the parameters
// and live loop variables, valid only during the call. Loop bounds,
// subscripts (index-array reads included) and break conditions are control,
// not data flow, and are not reported. An error stops the run and is
// returned.
type Observer func(s Stmt, ord int, array string, flat int, env map[string]int) error

// reads numbers one statement's data reads for its observer (nil: none).
type reads struct {
	obs Observer
	s   Stmt
	n   int
}

// evalExpr evaluates a data expression against the instance's arrays,
// reporting each array read to rd.
func (in *Instance) evalExpr(e Expr, env map[string]int, rd *reads) (float64, error) {
	switch e := e.(type) {
	case Const:
		return float64(e), nil
	case Ref:
		arr, flat, err := in.offset(e.Array, e.Idx, env)
		if err != nil {
			return 0, err
		}
		if rd.obs != nil {
			if err := rd.obs(rd.s, rd.n, e.Array, flat, env); err != nil {
				return 0, err
			}
			rd.n++
		}
		return arr.Data[flat], nil
	case Bin:
		l, err := in.evalExpr(e.L, env, rd)
		if err != nil {
			return 0, err
		}
		r, err := in.evalExpr(e.R, env, rd)
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
	return in.evalCond(c, env, &reads{})
}

func (in *Instance) evalCond(c Cond, env map[string]int, rd *reads) (bool, error) {
	l, err := in.evalExpr(c.L, env, rd)
	if err != nil {
		return false, err
	}
	r, err := in.evalExpr(c.R, env, rd)
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
func (in *Instance) Interpret() error { return in.InterpretObserved(nil) }

// InterpretObserved is Interpret reporting every data access to obs (nil
// observes nothing): the dependence analysis learns what a program accesses
// from the code that defines what it computes.
func (in *Instance) InterpretObserved(obs Observer) error {
	env := make(map[string]int, len(in.Params))
	maps.Copy(env, in.Params)
	return in.interpretStmts(in.Prog.Body, env, obs)
}

func (in *Instance) interpretStmts(stmts []Stmt, env map[string]int, obs Observer) error {
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
				if err := in.interpretStmts(s.Body, env, obs); err != nil {
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
			val, err := in.evalExpr(s.RHS, env, &reads{obs: obs, s: s})
			if err != nil {
				return err
			}
			arr, flat, err := in.offset(s.LHS.Array, s.LHS.Idx, env)
			if err != nil {
				return err
			}
			if obs != nil {
				if err := obs(s, -1, s.LHS.Array, flat, env); err != nil {
					return err
				}
			}
			arr.Data[flat] = val
		case *If:
			ok, err := in.evalCond(s.Cond, env, &reads{obs: obs, s: s})
			if err != nil {
				return err
			}
			if ok {
				err = in.interpretStmts(s.Then, env, obs)
			} else {
				err = in.interpretStmts(s.Else, env, obs)
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
