package dlb

import (
	"fmt"
	"os"
	"testing"
)

// TestMain points the native-kernel cache at a directory of its own: an
// unpinned run above the tier gate builds a plugin, and the tests must not
// leave plugins in the user's cache.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dlb-aot-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("DLB_AOT_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}
