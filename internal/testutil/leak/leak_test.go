package leak

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recorder is a testing.TB that keeps the failure instead of reporting it.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...interface{}) {
	r.failure = fmt.Sprintf(format, args...)
}

// parked blocks until its channel is closed; a leak's stack names it.
func parked(c chan struct{}) { <-c }

// TestSettle: a goroutine that exits shortly after the count is read
// passes; one that is still parked at the deadline fails, and the failure
// carries its stack.
func TestSettle(t *testing.T) {
	base := runtime.NumGoroutine()
	go time.Sleep(20 * time.Millisecond)
	Settle(t, base)

	c := make(chan struct{})
	defer close(c)
	go parked(c)
	r := &recorder{TB: t}
	settle(r, base, 50*time.Millisecond)
	if !strings.Contains(r.failure, "leak.parked") {
		t.Errorf("a parked goroutine passed, or its stack is missing: %q", r.failure)
	}
}
