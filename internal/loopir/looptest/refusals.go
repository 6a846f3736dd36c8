package looptest

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Refusal is one case of the compiler's refusal table
// (internal/compile/testdata/refusals.txt): a program, the directive it
// compiles under (empty: the derived one), and the whole error it is
// refused with — by Compile, or, when Params is set, by Instantiate at
// those params.
type Refusal struct {
	Name, Dist, Src, Want string
	Params                map[string]int
}

// Refusals reads a refusal table: a preamble, then per case a "-- name --"
// line, "dist:", "params:" (name=value pairs) and "want:" lines among
// comments, and the program from its "program" line on.
func Refusals(path string) ([]Refusal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cases []Refusal
	for _, block := range strings.Split(string(data), "\n-- ")[1:] {
		name, body, _ := strings.Cut(block, " --\n")
		c := Refusal{Name: name}
		for body != "" && !strings.HasPrefix(body, "program") {
			var line string
			line, body, _ = strings.Cut(body, "\n")
			switch key, val, _ := strings.Cut(line, ": "); key {
			case "dist":
				c.Dist = val
			case "want":
				c.Want = val
			case "params":
				c.Params = map[string]int{}
				for _, kv := range strings.Fields(val) {
					k, v, _ := strings.Cut(kv, "=")
					if c.Params[k], err = strconv.Atoi(v); err != nil {
						return nil, fmt.Errorf("%s: case %q: %v", path, name, err)
					}
				}
			}
		}
		c.Src = strings.TrimSpace(body)
		cases = append(cases, c)
	}
	return cases, nil
}
