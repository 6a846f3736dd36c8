package metrics

import "sort"

// Counters is a set of named event counters. The run-time engine builds
// one per run, once, when the run ends — every name on every endpoint
// (simulated, wall-clock, TCP), zeros included, so harnesses can compare
// runs across transports without endpoint-specific accounting.
type Counters map[string]int64

// Get returns a counter's value (0 for a name the run does not produce).
func (c Counters) Get(name string) int64 { return c[name] }

// Names lists the counter names in sorted order.
func (c Counters) Names() []string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
