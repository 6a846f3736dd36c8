// Package leak is a test helper: it checks that what a test started has
// stopped. It is imported by _test.go files only.
package leak

import (
	"runtime"
	"testing"
	"time"
)

// Settle fails t unless runtime.NumGoroutine() falls back to base, the
// count the test read before it started anything. A goroutine that has
// done its last send may not have exited yet when the receiver reads the
// count, so Settle polls until a deadline instead of reading once; on
// failure it prints every goroutine's stack. base is never raised.
func Settle(t testing.TB, base int) {
	t.Helper()
	settle(t, base, 5*time.Second)
}

func settle(t testing.TB, base int, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines, %d before: a goroutine outlived the test\n%s", runtime.NumGoroutine(), base, buf)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
