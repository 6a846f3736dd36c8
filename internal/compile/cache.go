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
// field.
func cacheKey(source string, o Options) (key [sha256.Size]byte) {
	h := sha256.New()
	fmt.Fprintf(h, "compile-cache-v1 %d\n", len(source))
	io.WriteString(h, source)
	for _, k := range sortedKeys(o.Dist.Dims) {
		fmt.Fprintf(h, "dim %q=%d\n", k, o.Dist.Dims[k])
	}
	for _, l := range o.Dist.Loops {
		fmt.Fprintf(h, "loop %q\n", l)
	}
	h.Sum(key[:0])
	return key
}

// clone deep-copies the directive's maps.
func (o Options) clone() Options {
	o.Dist = depend.DistSpec{Dims: maps.Clone(o.Dist.Dims), Loops: slices.Clone(o.Dist.Loops)}
	return o
}
