package loopir

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWalkMatchesObservedOrder: the static view of a program (Walk's order,
// Reads' references) and the dynamic one (InterpretObserved) cannot drift
// apart. On every library program, statements first execute in the order
// Walk visits them, and each statement's first execution reports the
// references Reads yields — same ordinal, array and element — then an
// Assign's write.
func TestWalkMatchesObservedOrder(t *testing.T) {
	params := kernelTestParams()
	for name, p := range Library() {
		t.Run(name, func(t *testing.T) {
			var static []Stmt
			refs := map[Stmt][]Ref{}
			Walk(p.Body, func(s Stmt, _ []*Loop) error {
				if _, ok := s.(*Loop); ok {
					return nil
				}
				static = append(static, s)
				Reads(s, func(r Ref) error {
					refs[s] = append(refs[s], r)
					return nil
				})
				if a, ok := s.(*Assign); ok {
					refs[s] = append(refs[s], a.LHS)
				}
				return nil
			})

			in, err := NewInstance(p, params[name])
			if err != nil {
				t.Fatal(err)
			}
			var dynamic []Stmt
			seen := map[Stmt]int{} // accesses of the first execution so far
			done := map[Stmt]bool{}
			var cur Stmt
			err = in.InterpretObserved(func(s Stmt, ord int, array string, flat int, env map[string]int) error {
				if s != cur {
					done[cur], cur = true, s
				}
				if _, ok := seen[s]; !ok {
					dynamic = append(dynamic, s)
				}
				k := seen[s]
				if done[s] || ord == 0 && k > 0 {
					done[s] = true
					return nil
				}
				if ord < 0 {
					done[s] = true
				}
				seen[s] = k + 1
				if k >= len(refs[s]) {
					return fmt.Errorf("access %d (ord %d, %s) past the %d references Reads yields", k, ord, array, len(refs[s]))
				}
				r := refs[s][k]
				wantOrd := k
				if _, ok := s.(*Assign); ok && k == len(refs[s])-1 {
					wantOrd = -1
				}
				_, wantFlat, err := in.offset(r.Array, r.Idx, env)
				if err != nil {
					return err
				}
				if ord != wantOrd || array != r.Array || flat != wantFlat {
					return fmt.Errorf("access (ord %d, %s@%d), Reads says (ord %d, %s@%d)", ord, array, flat, wantOrd, r.String(), wantFlat)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(dynamic) != len(static) {
				t.Fatalf("%d statements executed, Walk visits %d", len(dynamic), len(static))
			}
			for i := range static {
				if dynamic[i] != static[i] {
					t.Fatalf("statement %d first executed is %v, Walk's is %v", i, dynamic[i], static[i])
				}
				if seen[static[i]] != len(refs[static[i]]) {
					t.Errorf("statement %d made %d accesses, Reads and the write say %d", i, seen[static[i]], len(refs[static[i]]))
				}
			}
		})
	}
}

// TestWalkOrderSkipAndStop pins the walk's contract: pre-order with the
// enclosing loops outermost first, SkipBody pruning one subtree, and any
// other error ending the walk.
func TestWalkOrderSkipAndStop(t *testing.T) {
	set := func(k int) Stmt { return Set(Fref("a", Ic(k)), Fc(1)) }
	body := []Stmt{
		For("i", Ic(0), Ic(2), set(0), For("j", Ic(0), Ic(2), set(1))),
		&If{Cond: Cond{Op: "<", L: Fc(0), R: Fc(1)}, Then: []Stmt{set(2)}, Else: []Stmt{set(3)}},
		set(4),
	}
	label := func(s Stmt) string {
		switch s := s.(type) {
		case *Assign:
			return s.LHS.String()
		case *If:
			return "if"
		}
		return "for " + s.(*Loop).Var
	}
	walk := func(skip string, stop error) ([]string, error) {
		var got []string
		err := Walk(body, func(s Stmt, loops []*Loop) error {
			vars := make([]string, len(loops))
			for i, l := range loops {
				vars[i] = l.Var
			}
			got = append(got, label(s)+"@"+strings.Join(vars, ","))
			switch {
			case label(s) == skip && stop == nil:
				return SkipBody
			case label(s) == skip:
				return stop
			}
			return nil
		})
		return got, err
	}

	cases := []struct {
		skip string
		stop error
		want []string
	}{
		{"", nil, []string{"for i@", "a[0]@i", "for j@i", "a[1]@i,j", "if@", "a[2]@", "a[3]@", "a[4]@"}},
		{"for i", nil, []string{"for i@", "if@", "a[2]@", "a[3]@", "a[4]@"}},
		{"for j", nil, []string{"for i@", "a[0]@i", "for j@i", "if@", "a[2]@", "a[3]@", "a[4]@"}},
		{"if", nil, []string{"for i@", "a[0]@i", "for j@i", "a[1]@i,j", "if@", "a[4]@"}},
		{"a[1]", errors.New("stop"), []string{"for i@", "a[0]@i", "for j@i", "a[1]@i,j"}},
	}
	for _, tc := range cases {
		got, err := walk(tc.skip, tc.stop)
		if err != tc.stop {
			t.Errorf("skip %q: Walk returned %v, want %v", tc.skip, err, tc.stop)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("skip %q, stop %v: visited %v, want %v", tc.skip, tc.stop, got, tc.want)
		}
	}
}
