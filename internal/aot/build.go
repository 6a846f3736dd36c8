package aot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// ModePlugin names the one load mode (BuildInfo.Mode).
const ModePlugin = "plugin"

// memo single-flights identical builds within the process and keeps
// loaded programs alive (a plugin cannot be unloaded anyway).
var (
	memoMu sync.Mutex
	memo   = map[string]*memoEntry{}
)

type memoEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// ClearMemory drops the in-process program memo. Tests and benchmarks use
// it to measure the on-disk warm path.
func ClearMemory() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memo = map[string]*memoEntry{}
}

// Build emits the spec's kernels, builds (or reuses) the plugin and opens
// it. Safe for concurrent callers: identical specs build once per process
// (memo) and once per machine (cache directory + lock file).
func Build(spec Spec) (*Program, error) {
	emitStart := time.Now()
	e, err := emitSpec(spec)
	if err != nil {
		return nil, err
	}
	key := cacheKey(e)
	emitDur := time.Since(emitStart)

	memoMu.Lock()
	ent, hit := memo[key]
	if !hit {
		ent = &memoEntry{}
		memo[key] = ent
	}
	memoMu.Unlock()

	ent.once.Do(func() {
		ent.prog, ent.err = buildAndLoad(spec, e, key, emitDur)
	})
	if ent.err != nil {
		return nil, ent.err
	}
	if hit {
		// A memo hit is the warmest start there is: hand out a fresh
		// handle so the caller's BuildInfo reflects it without mutating
		// the shared program.
		p := *ent.prog
		p.Info.Warm, p.Info.Memo = true, true
		p.Info.EmitDur, p.Info.BuildDur, p.Info.LoadDur = emitDur, 0, 0
		return &p, nil
	}
	return ent.prog, nil
}

// cacheKey hashes everything that determines the artifact: emitted
// source, Go version, GOARCH and the race-detector state of the host (a
// race-enabled host can only load race-enabled plugins).
func cacheKey(e *emitted) string {
	h := sha256.New()
	fmt.Fprintf(h, "go=%s arch=%s race=%v\n", runtime.Version(), runtime.GOARCH, raceEnabled)
	names := make([]string, 0, len(e.files))
	for name := range e.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "-- %s --\n%s", name, e.files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheRoot resolves the on-disk cache directory.
func cacheRoot(override string) (string, error) {
	if override != "" {
		return override, nil
	}
	if dir := os.Getenv("DLB_AOT_CACHE"); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("aot: no user cache dir: %w", err)
	}
	return filepath.Join(base, "dlb-aot"), nil
}

func buildAndLoad(spec Spec, e *emitted, key string, emitDur time.Duration) (*Program, error) {
	root, err := cacheRoot(spec.CacheDir)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, key[:16])
	artifact := filepath.Join(dir, "kernel.so")

	info := BuildInfo{Key: key, Mode: ModePlugin, Dir: dir, EmitDur: emitDur, Skipped: e.skipped}

	if _, err := os.Stat(artifact); err != nil {
		// Cold: materialize source and run the toolchain under the
		// cross-process lock; a racing process may have built it by the
		// time the lock is held.
		unlock, err := lockDir(dir)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(artifact); err != nil {
			buildStart := time.Now()
			// The module path becomes the symbol prefix of package main and
			// the plugin path — both must be unique per artifact or the
			// runtime refuses to load two different emitted programs. The
			// key is not known at emission time, so substitute it here.
			files := make(map[string]string, len(e.files))
			for name, content := range e.files {
				files[name] = content
			}
			files["go.mod"] = fmt.Sprintf("module dlbaot/k%s\n\ngo 1.22\n", key[:16])
			if err := writeSource(filepath.Join(dir, "src"), files); err != nil {
				unlock()
				return nil, err
			}
			if err := runToolchain(filepath.Join(dir, "src"), artifact); err != nil {
				unlock()
				return nil, err
			}
			info.BuildDur = time.Since(buildStart)
		} else {
			info.Warm = true
		}
		unlock()
	} else {
		info.Warm = true
	}

	loadStart := time.Now()
	fns, err := loadPlugin(artifact, len(e.kernels))
	if err != nil {
		return nil, err
	}
	p := &Program{Info: info, Kernels: make([]*Kernel, len(e.kernels))}
	for i, ek := range e.kernels {
		if ek != nil {
			p.Kernels[i] = &Kernel{Meta: ek, fn: fns[i]}
		}
	}
	p.Info.LoadDur = time.Since(loadStart)
	return p, nil
}

func writeSource(srcDir string, files map[string]string) error {
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(srcDir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// unavailable wraps a toolchain or loader failure with the remedy: the
// next tier down runs the same kernels on the VM and needs no toolchain.
func unavailable(what string, err error) error {
	return fmt.Errorf("aot: %s: %w\naot: native kernels need a Go toolchain with cgo and -buildmode=plugin on this host; "+
		"run on the VM tier instead (-kernel kernel; dlbd -kernel kernel pins one daemon)", what, err)
}

// runToolchain invokes go build. Plugins need cgo; plugin-path
// uniqueness comes from the per-key module path written by buildAndLoad.
func runToolchain(srcDir, artifact string) error {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	args := []string{"build", "-buildmode=plugin"}
	if raceEnabled {
		args = append(args, "-race")
	}
	tmp := artifact + ".tmp"
	args = append(args, "-o", tmp, ".")
	cmd := exec.Command(goBin, args...)
	cmd.Dir = srcDir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "CGO_ENABLED=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return unavailable(strings.Join(cmd.Args, " "), fmt.Errorf("%w\n%s", err, bytes.TrimSpace(out)))
	}
	return os.Rename(tmp, artifact)
}

// loadPlugin opens the shared object and resolves the kernel table.
func loadPlugin(path string, want int) ([]rawKernel, error) {
	pl, err := plugin.Open(path)
	if err != nil {
		return nil, unavailable("open plugin", err)
	}
	sym, err := pl.Lookup("Kernels")
	if err != nil {
		return nil, fmt.Errorf("aot: plugin has no Kernels table: %w", err)
	}
	tbl, ok := sym.(*[]rawKernel)
	if !ok {
		return nil, fmt.Errorf("aot: Kernels table has type %T", sym)
	}
	if len(*tbl) != want {
		return nil, fmt.Errorf("aot: Kernels table has %d entries, want %d", len(*tbl), want)
	}
	return *tbl, nil
}

// lockDir acquires a best-effort cross-process build lock for a cache
// directory via an O_EXCL lock file. A lock older than staleLockAge is
// presumed abandoned (a killed builder) and broken.
const staleLockAge = 5 * time.Minute

func lockDir(dir string) (unlock func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ".lock")
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if st, serr := os.Stat(path); serr == nil && time.Since(st.ModTime()) > staleLockAge {
			os.Remove(path)
			continue
		}
		time.Sleep(50 * time.Millisecond)
	}
}
