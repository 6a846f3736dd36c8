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

// runTrace runs a plan of the given steps and records every leaf as
// "label[lo,hi) var=value ..." with the loop variables bound at the time.
func runTrace(steps []Step, grain int, brk func(c *loopir.Cond) (bool, error), vars ...string) ([]string, map[string]int, error) {
	env := map[string]int{"n": 7}
	var got []string
	leaf := func(s Step, lo, hi int) error {
		line := fmt.Sprintf("%s[%d,%d)", stepLabel(s), lo, hi)
		for _, v := range vars {
			if x, ok := env[v]; ok {
				line += fmt.Sprintf(" %s=%d", v, x)
			}
		}
		got = append(got, line)
		return nil
	}
	err := (&Plan{Steps: steps}).Run(env, grain, leaf, brk)
	return got, env, err
}

// TestRunBreakIfAfterEachIteration: brk is asked after every iteration of
// a loop with a BreakIf, with the iteration's variable still bound, and a
// true answer ends the loop; a nil brk runs it to its bound.
func TestRunBreakIfAfterEachIteration(t *testing.T) {
	cond := &loopir.Cond{Op: ">", L: loopir.Fc(1), R: loopir.Fc(0)}
	steps := []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(5), BreakIf: cond, Body: []Step{&Hook{ID: 0}}}}
	var asked []int
	env := map[string]int{}
	brk := func(c *loopir.Cond) (bool, error) {
		if c != cond {
			t.Fatalf("brk got %v, want the loop's BreakIf", c)
		}
		asked = append(asked, env["t"])
		return env["t"] == 2, nil
	}
	visits := 0
	err := (&Plan{Steps: steps}).Run(env, 1, func(Step, int, int) error { visits++; return nil }, brk)
	if err != nil || visits != 3 || !reflect.DeepEqual(asked, []int{0, 1, 2}) {
		t.Fatalf("Run = %v, %d hook visits, brk asked at t=%v; want nil, 3, [0 1 2]", err, visits, asked)
	}
	if _, bound := env["t"]; bound {
		t.Fatal("t still bound after the loop broke")
	}

	got, _, err := runTrace(steps, 1, nil, "t")
	if err != nil || len(got) != 5 {
		t.Fatalf("nil brk: %q, %v; want 5 iterations", got, err)
	}
}

// TestRunStripBlocks: a StripLoop runs in blocks of max(grain, 1), the last
// one short; Pre, Body and Post leaves each see their own block; loop
// variables are bound inside their loops and unbound after Run.
func TestRunStripBlocks(t *testing.T) {
	steps := []Step{
		&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(1), Body: []Step{
			&StripLoop{Var: "i", Lo: loopir.Ic(0), Hi: loopir.Iv("n"),
				Pre:  []Step{&PipeRecv{Array: "a"}},
				Body: []Step{&OwnedLoop{Var: "j"}},
				Post: []Step{&PipeSend{Array: "a"}, &Hook{ID: 1}},
			},
		}},
		&Hook{ID: 2},
	}
	got, env, err := runTrace(steps, 3, nil, "t", "i")
	want := []string{
		"recv a[0,3) t=0", "owned j[0,3) t=0 i=0", "owned j[0,3) t=0 i=1", "owned j[0,3) t=0 i=2", "send a[0,3) t=0", "hook1[0,3) t=0",
		"recv a[3,6) t=0", "owned j[3,6) t=0 i=3", "owned j[3,6) t=0 i=4", "owned j[3,6) t=0 i=5", "send a[3,6) t=0", "hook1[3,6) t=0",
		"recv a[6,7) t=0", "owned j[6,7) t=0 i=6", "send a[6,7) t=0", "hook1[6,7) t=0",
		"hook2[0,0)",
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("grain 3:\n got %q, %v\nwant %q", got, err, want)
	}
	if !reflect.DeepEqual(env, map[string]int{"n": 7}) {
		t.Fatalf("env after Run = %v, want only the parameters", env)
	}

	for _, grain := range []int{0, -2} {
		got, _, err = runTrace(steps, grain, nil)
		one, _, _ := runTrace(steps, 1, nil)
		if err != nil || !reflect.DeepEqual(got, one) {
			t.Fatalf("grain %d:\n got %q, %v\nwant grain 1's %q", grain, got, err, one)
		}
	}
}

// TestRunReturnsErrors: an unevaluable bound, a leaf error and a brk error
// each end the run and come back from Run.
func TestRunReturnsErrors(t *testing.T) {
	boom := errors.New("boom")
	cond := &loopir.Cond{Op: ">", L: loopir.Fc(1), R: loopir.Fc(0)}
	cases := []struct {
		name  string
		steps []Step
		leaf  error
		brk   error
	}{
		{"seq bound", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Iv("missing")}}, nil, nil},
		{"strip bound", []Step{&StripLoop{Var: "i", Lo: loopir.Iv("missing"), Hi: loopir.Ic(3)}}, nil, nil},
		{"leaf", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(3), Body: []Step{&Hook{}}}}, boom, nil},
		{"brk", []Step{&SeqLoop{Var: "t", Lo: loopir.Ic(0), Hi: loopir.Ic(3), BreakIf: cond, Body: []Step{&Hook{}}}}, nil, boom},
	}
	for _, tc := range cases {
		leaves := 0
		err := (&Plan{Steps: tc.steps}).Run(map[string]int{}, 1,
			func(Step, int, int) error { leaves++; return tc.leaf },
			func(*loopir.Cond) (bool, error) { return false, tc.brk })
		switch {
		case tc.leaf != nil || tc.brk != nil:
			if err != boom || leaves != 1 {
				t.Errorf("%s: Run = %v after %d leaves, want boom after 1", tc.name, err, leaves)
			}
		case err == nil || !strings.Contains(err.Error(), "missing"):
			t.Errorf("%s: Run = %v, want the bound's error", tc.name, err)
		}
	}
}

// TestOwnedLoopRange: a distributed loop's bounds are clamped to the units
// that exist, and an unevaluable bound is an error.
func TestOwnedLoopRange(t *testing.T) {
	l := &OwnedLoop{Var: "j", Lo: loopir.Isub(loopir.Iv("k"), loopir.Ic(2)), Hi: loopir.Iadd(loopir.Iv("k"), loopir.Ic(2))}
	for _, tc := range []struct{ k, lo, hi int }{{0, 0, 2}, {3, 1, 5}, {9, 7, 10}} {
		lo, hi, err := l.Range(map[string]int{"k": tc.k}, 10)
		if err != nil || lo != tc.lo || hi != tc.hi {
			t.Errorf("k=%d: Range = [%d,%d), %v; want [%d,%d)", tc.k, lo, hi, err, tc.lo, tc.hi)
		}
	}
	if _, _, err := l.Range(map[string]int{}, 10); err == nil {
		t.Error("Range with k unbound: no error")
	}
}
