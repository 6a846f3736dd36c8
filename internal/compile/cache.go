package compile

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/lru"
)

// Cache compiles each distinct (program text, directive, hook rule) once.
// Compile takes no run parameters — problem size, slave count, grain and
// tier all enter later, at Instantiate — so a long-lived process that sees
// the same program again at a new size already holds its plan. The key is
// a hash of exactly what Compile reads, so nothing the cache returns could
// differ from a fresh compilation; a cached *Plan is shared by every caller
// and must be treated as read-only (Instantiate and the runtimes do).
//
// Safe for concurrent use; concurrent misses on one key compile once;
// errors are returned and not remembered.
type Cache struct {
	plans *lru.Memo[[sha256.Size]byte, *Plan]
}

// NewCache returns a cache holding at most max plans (at least one).
func NewCache(max int) *Cache {
	return &Cache{plans: lru.NewMemo[[sha256.Size]byte, *Plan](max)}
}

// Compile parses and compiles source under opts, or returns the plan an
// earlier call produced for the same content. cached reports the latter.
func (c *Cache) Compile(source string, opts Options) (plan *Plan, cached bool, err error) {
	opts = opts.withDefaults()
	return c.plans.Do(cacheKey(source, opts), func() (*Plan, error) {
		prog, err := lang.Parse(source)
		if err != nil {
			return nil, fmt.Errorf("parsing program: %w", err)
		}
		// The plan keeps the directive's maps; give it its own so a caller
		// reusing its request cannot reach into a shared plan.
		return Compile(prog, opts.clone())
	})
}

// Stats returns how many Compile calls were served from the cache and how
// many compiled.
func (c *Cache) Stats() (hits, misses int64) { return c.plans.Stats() }

// cacheKey hashes every input of Compile: the source text and each Options
// field, defaults applied. A new Options field must be added here.
func cacheKey(source string, o Options) (key [sha256.Size]byte) {
	h := sha256.New()
	fmt.Fprintf(h, "compile-cache-v1 %d\n", len(source))
	io.WriteString(h, source)
	writeSorted(h, "dim", o.Dist.Dims)
	for _, l := range o.Dist.Loops {
		fmt.Fprintf(h, "loop %q\n", l)
	}
	fmt.Fprintf(h, "hook %x %x\n", o.HookFraction, o.HookCostFlops)
	for _, s := range o.Samples {
		fmt.Fprintf(h, "sample of %d\n", len(s))
		writeSorted(h, "param", s)
	}
	h.Sum(key[:0])
	return key
}

func writeSorted(w io.Writer, label string, m map[string]int) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%s %q=%d\n", label, k, m[k])
	}
}

// clone deep-copies the reference-typed fields.
func (o Options) clone() Options {
	o.Dist = depend.DistSpec{Dims: maps.Clone(o.Dist.Dims), Loops: slices.Clone(o.Dist.Loops)}
	o.Samples = slices.Clone(o.Samples)
	for i, s := range o.Samples {
		o.Samples[i] = maps.Clone(s)
	}
	return o
}
