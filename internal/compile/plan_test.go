package compile

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/loopir"
)

// stepLabel names a step for the contract tests: a loop by its variable, a
// hook by its ID, a pipeline step by its array.
func stepLabel(s Step) string {
	switch s := s.(type) {
	case *SeqLoop:
		return "seq " + s.Var
	case *StripLoop:
		return "strip " + s.Var
	case *OwnedLoop:
		return "owned " + s.Var
	case *PipeRecv:
		return "recv " + s.Array
	case *PipeSend:
		return "send " + s.Array
	case *Hook:
		return fmt.Sprintf("hook%d", s.ID)
	}
	return fmt.Sprintf("%T", s)
}

// TestWalkStepsOrderRestAndStop pins WalkSteps' contract: pre-order with a
// StripLoop's Pre, Body and Post in that order, each step's following
// siblings as rest, children read after the visit (a visitor may rewrite
// them), and a visitor error ending the walk.
func TestWalkStepsOrderRestAndStop(t *testing.T) {
	tree := func() []Step {
		return []Step{
			&SeqLoop{Var: "t", Body: []Step{
				&Hook{ID: 0},
				&StripLoop{Var: "i",
					Pre:  []Step{&PipeRecv{Array: "a"}},
					Body: []Step{&OwnedLoop{Var: "j"}},
					Post: []Step{&PipeSend{Array: "a"}, &Hook{ID: 1}},
				},
				&Hook{ID: 2},
			}},
			&Hook{ID: 3},
		}
	}
	walk := func(steps []Step, stop string) ([]string, error) {
		var got []string
		err := WalkSteps(steps, func(s Step, rest []Step) error {
			var after []string
			for _, r := range rest {
				after = append(after, stepLabel(r))
			}
			got = append(got, stepLabel(s)+" <"+strings.Join(after, ",")+">")
			if stepLabel(s) == stop {
				return errors.New("stop")
			}
			return nil
		})
		return got, err
	}

	got, err := walk(tree(), "")
	want := []string{
		"seq t <hook3>",
		"hook0 <strip i,hook2>",
		"strip i <hook2>",
		"recv a <>",
		"owned j <>",
		"send a <hook1>",
		"hook1 <>",
		"hook2 <>",
		"hook3 <>",
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %q, %v\nwant %q", got, err, want)
	}

	got, err = walk(tree(), "owned j")
	if err == nil || err.Error() != "stop" || !reflect.DeepEqual(got, want[:5]) {
		t.Fatalf("stopped walk = %q, %v; want %q and the visitor's error", got, err, want[:5])
	}

	// A visitor that rewrites a loop's body sees the new children.
	steps := []Step{&SeqLoop{Var: "t"}}
	var seen []string
	WalkSteps(steps, func(s Step, _ []Step) error {
		if l, ok := s.(*SeqLoop); ok {
			l.Body = append(l.Body, &Hook{ID: 7})
		}
		seen = append(seen, stepLabel(s))
		return nil
	})
	if !reflect.DeepEqual(seen, []string{"seq t", "hook7"}) {
		t.Fatalf("rewritten walk = %q, want the appended hook visited", seen)
	}
}

// lowered lowers a plan of the given steps at n = 7.
func lowered(t *testing.T, steps []Step) (*Plan, *Frame, loopir.Frame) {
	t.Helper()
	layout := loopir.Frame{}
	p := &Plan{Steps: steps}
	f, err := p.Lower(layout, map[string]int{"n": 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, f, layout
}

// runTrace runs a plan of the given steps and records every leaf as
// "label[lo,hi)", a distributed loop's with "var=value ..." for the loop
// variables' slots at the time.
func runTrace(t *testing.T, steps []Step, grain int, brk func(c *loopir.Cond) (bool, error), vars ...string) ([]string, error) {
	p, f, layout := lowered(t, steps)
	var got []string
	leaf := func(l *Node, lo, hi int) error {
		line := fmt.Sprintf("%s[%d,%d)", stepLabel(l.Step), lo, hi)
		if _, owned := l.Step.(*OwnedLoop); owned {
			for _, v := range vars {
				line += fmt.Sprintf(" %s=%d", v, f.Slots[layout[v]])
			}
		}
		got = append(got, line)
		return nil
	}
	err := p.Run(f, grain, leaf, brk)
	return got, err
}

// TestRunBreakIfAfterEachIteration: brk is asked after every iteration of
// a loop with a BreakIf, with the iteration in the variable's slot, and a
// true answer ends the loop; a nil brk runs it to its bound.
func TestRunBreakIfAfterEachIteration(t *testing.T) {
	cond := &loopir.Cond{Op: ">", L: loopir.Fc(1), R: loopir.Fc(0)}
	steps := []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(5), BreakIf: cond, Body: []Step{&Hook{ID: 0}}}}
	p, f, layout := lowered(t, steps)
	var asked []int
	brk := func(c *loopir.Cond) (bool, error) {
		if c != cond {
			t.Fatalf("brk got %v, want the loop's BreakIf", c)
		}
		asked = append(asked, f.Slots[layout["t"]])
		return f.Slots[layout["t"]] == 2, nil
	}
	visits := 0
	err := p.Run(f, 1, func(*Node, int, int) error { visits++; return nil }, brk)
	if err != nil || visits != 3 || !reflect.DeepEqual(asked, []int{0, 1, 2}) {
		t.Fatalf("Run = %v, %d hook visits, brk asked at t=%v; want nil, 3, [0 1 2]", err, visits, asked)
	}

	got, err := runTrace(t, steps, 1, nil, "t")
	if err != nil || len(got) != 5 {
		t.Fatalf("nil brk: %q, %v; want 5 iterations", got, err)
	}
}

// TestRunStripBlocks: a StripLoop runs in blocks of max(grain, 1), the last
// one short; Pre, Body and Post leaves each see their own block; the body
// sees each loop's iteration in its variable's slot.
func TestRunStripBlocks(t *testing.T) {
	steps := []Step{
		&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(1), Body: []Step{
			&StripLoop{Var: "i", Lo: loopir.Ic(0), Hi: loopir.Iv("n"),
				Pre:  []Step{&PipeRecv{Array: "a"}},
				Body: []Step{&OwnedLoop{Var: "j", Lo: loopir.Ic(0), Hi: loopir.Ic(1)}},
				Post: []Step{&PipeSend{Array: "a"}, &Hook{ID: 1}},
			},
		}},
		&Hook{ID: 2},
	}
	got, err := runTrace(t, steps, 3, nil, "t", "i")
	want := []string{
		"recv a[0,3)", "owned j[0,3) t=0 i=0", "owned j[0,3) t=0 i=1", "owned j[0,3) t=0 i=2", "send a[0,3)", "hook1[0,3)",
		"recv a[3,6)", "owned j[3,6) t=0 i=3", "owned j[3,6) t=0 i=4", "owned j[3,6) t=0 i=5", "send a[3,6)", "hook1[3,6)",
		"recv a[6,7)", "owned j[6,7) t=0 i=6", "send a[6,7)", "hook1[6,7)",
		"hook2[0,0)",
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("grain 3:\n got %q, %v\nwant %q", got, err, want)
	}

	for _, grain := range []int{0, -2} {
		got, err = runTrace(t, steps, grain, nil)
		one, _ := runTrace(t, steps, 1, nil)
		if err != nil || !reflect.DeepEqual(got, one) {
			t.Fatalf("grain %d:\n got %q, %v\nwant grain 1's %q", grain, got, err, one)
		}
	}
}

// TestRunReturnsErrors: a leaf error and a brk error each end the run and
// come back from Run; a bound or index Lower cannot lower (a name that is
// neither a parameter nor an enclosing loop's variable, an index-array
// read) is Lower's error.
func TestRunReturnsErrors(t *testing.T) {
	boom := errors.New("boom")
	cond := &loopir.Cond{Op: ">", L: loopir.Fc(1), R: loopir.Fc(0)}
	cases := []struct {
		name  string
		steps []Step
		leaf  error
		brk   error
	}{
		{"leaf", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(3), Body: []Step{&Hook{}}}}, boom, nil},
		{"brk", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(3), BreakIf: cond, Body: []Step{&Hook{}}}}, nil, boom},
	}
	for _, tc := range cases {
		leaves := 0
		p, f, _ := lowered(t, tc.steps)
		err := p.Run(f, 1,
			func(*Node, int, int) error { leaves++; return tc.leaf },
			func(*loopir.Cond) (bool, error) { return false, tc.brk })
		if err != boom || leaves != 1 {
			t.Errorf("%s: Run = %v after %d leaves, want boom after 1", tc.name, err, leaves)
		}
	}
	iarr := loopir.IArr{Array: "c", Idx: []loopir.IExpr{loopir.Ic(0)}}
	owned := func(v string) *OwnedLoop { return &OwnedLoop{Var: "j", Lo: loopir.Ic(0), Hi: loopir.Iv(v)} }
	for _, tc := range []struct {
		name  string
		steps []Step
		want  string
	}{
		{"seq bound", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Iv("missing")}}, `unbound index variable "missing"`},
		{"strip bound", []Step{&StripLoop{Var: "i", Lo: loopir.Iv("missing"), Hi: loopir.Ic(3)}}, `unbound index variable "missing"`},
		{"finished loop", []Step{&SeqLoop{Var: "k", Lo: loopir.Ic(0), Hi: loopir.Ic(3)}, owned("k")}, `unbound index variable "k"`},
		{"strip post", []Step{&StripLoop{Var: "i", Lo: loopir.Ic(0), Hi: loopir.Ic(3), Post: []Step{&Bcast{Index: loopir.Iv("i")}}}}, `unbound index variable "i"`},
		{"product", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Imul(loopir.Iv("t"), loopir.Iv("t"))}}, `unbound index variable "t"`},
		{"seq index array", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: iarr}}, "IArr"},
		{"strip index array", []Step{&StripLoop{Var: "i", Lo: iarr, Hi: loopir.Ic(3)}}, "IArr"},
		{"owner index array", []Step{&OwnerBlock{Index: iarr}}, "IArr"},
	} {
		if _, err := (&Plan{Steps: tc.steps}).Lower(loopir.Frame{}, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Lower = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestOwnedLoopRange: a distributed loop's bounds read the enclosing loop's
// slot and are clamped to the units that exist.
func TestOwnedLoopRange(t *testing.T) {
	owned := &OwnedLoop{Var: "j", Lo: loopir.Isub(loopir.Iv("k"), loopir.Ic(2)), Hi: loopir.Iadd(loopir.Iv("k"), loopir.Ic(2))}
	_, f, layout := lowered(t, []Step{&SeqLoop{Var: "k", Lo: loopir.Ic(0), Hi: loopir.Ic(1), Body: []Step{owned}}})
	for _, tc := range []struct{ k, lo, hi int }{{0, 0, 2}, {3, 1, 5}, {9, 7, 10}} {
		f.Slots[layout["k"]] = tc.k
		if lo, hi := f.Leaves[0].Range(f.Slots, 10); lo != tc.lo || hi != tc.hi {
			t.Errorf("k=%d: Range = [%d,%d); want [%d,%d)", tc.k, lo, hi, tc.lo, tc.hi)
		}
	}
}
