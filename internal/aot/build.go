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

// ClearMemory drops the in-process program memo and the toolchain probe.
// Tests and benchmarks use it to measure the on-disk warm path.
func ClearMemory() {
	memoMu.Lock()
	memo = map[string]*memoEntry{}
	memoMu.Unlock()
	probeMu.Lock()
	probed, probeErr = nil, nil
	probeMu.Unlock()
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
		p.Info.EmitDur = emitDur
		p.Info.BuildDur, p.Info.ProbeDur, p.Info.CompileDur, p.Info.LinkDur, p.Info.LoadDur = 0, 0, 0, 0, 0
		return &p, nil
	}
	return ent.prog, nil
}

// cacheKey hashes everything that determines the artifact: emitted
// source, Go version, GOARCH and the build recipe (whose flags carry the
// race-detector state of the host: a race-enabled host can only load
// race-enabled plugins).
func cacheKey(e *emitted) string {
	h := sha256.New()
	fmt.Fprintf(h, "go=%s arch=%s\ncompile %s\nlink %s\n", runtime.Version(), runtime.GOARCH,
		strings.Join(compileFlags, " "), strings.Join(linkFlags, " "))
	fmt.Fprintf(h, "-- kernels.go --\n%s", e.src)
	return hex.EncodeToString(h.Sum(nil))
}

// pkgPath is the package path an artifact is compiled under. The gc
// toolchain prefixes every symbol of the package with it and it is the
// plugin path, so it must be unique per artifact or the runtime refuses to
// load two different emitted programs.
func pkgPath(key string) string { return "dlbaot/k" + key[:16] }

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

	info := BuildInfo{Key: key, Mode: ModePlugin, Dir: dir, EmitDur: emitDur}

	if _, err := os.Stat(artifact); err != nil {
		// Cold: build under the cross-process lock; a racing process may
		// have built it by the time the lock is held.
		unlock, err := lockDir(dir)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(artifact); err != nil {
			if err := buildArtifact(e.src, key, dir, &info); err != nil {
				unlock()
				return nil, err
			}
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
		p.Kernels[i] = &Kernel{Meta: ek, fn: fns[i]}
	}
	p.Info.LoadDur = time.Since(loadStart)
	return p, nil
}

// unavailable wraps a toolchain or loader failure with the remedy: the
// next tier down runs the same kernels on the VM and needs no toolchain.
func unavailable(what string, err error) error {
	return fmt.Errorf("aot: %s: %w\naot: native kernels need a Go toolchain with cgo and -buildmode=plugin on this host; "+
		"run on the VM tier instead (-kernel kernel; dlbd -kernel kernel pins one daemon)", what, err)
}

// langVersion is the language version the emitted source is compiled at.
const langVersion = "go1.22"

// compileFlags and linkFlags are the recipe: the flags go build
// -buildmode=plugin passes the compiler and the linker for an import-free
// package main (TestRecipeIsTheToolchains holds them to the installed
// toolchain's), plus the linker's -w. Dropping DWARF leaves the machine
// code and the pclntab that profiles read as they were, and it is most of
// the external link's time.
var compileFlags, linkFlags = recipe()

func recipe() (compile, link []string) {
	suffix := "dynlink"
	var race []string
	if raceEnabled {
		suffix, race = "race_dynlink", []string{"-race"}
	}
	compile = append([]string{"-lang=" + langVersion, "-complete", "-dynlink", "-nolocalimports",
		"-installsuffix", suffix, "-pack"}, race...)
	link = append([]string{"-buildmode=plugin", "-installsuffix", suffix, "-w"}, race...)
	return compile, link
}

// compileArgs compiles srcDir/kernels.go into the archive out. The package
// imports nothing, so its importcfg is empty, and -trimpath records the
// file as plain kernels.go wherever the cache lives.
func compileArgs(tc *toolchain, pkg, srcDir, out string) []string {
	args := []string{"-o", out, "-p", pkg, "-goversion", tc.goVersion,
		"-trimpath", srcDir + "=>", "-importcfg", os.DevNull}
	args = append(args, compileFlags...)
	return append(args, filepath.Join(srcDir, "kernels.go"))
}

// linkArgs links the archive into the plugin out.
func linkArgs(tc *toolchain, pkg, importcfg, archive, out string) []string {
	args := []string{"-o", out, "-importcfg", importcfg, "-pluginpath", pkg}
	args = append(args, linkFlags...)
	return append(args, tc.extld, archive)
}

// buildArtifact writes dir/src/kernels.go and builds dir/kernel.so from it
// with the recipe, recording in info where the time went.
func buildArtifact(src, key, dir string, info *BuildInfo) error {
	start := time.Now()
	defer func() { info.BuildDur = time.Since(start) }()
	// Probe first, so a host without a usable toolchain writes nothing.
	tc, err := probe(nil)
	info.ProbeDur += time.Since(start)
	if err != nil {
		return err
	}

	srcDir := filepath.Join(dir, "src")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(srcDir, "kernels.go"), []byte(src), 0o644); err != nil {
		return err
	}
	work, err := os.MkdirTemp(dir, "work")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	pkg := pkgPath(key)
	archive := filepath.Join(work, "kernels.a")
	t := time.Now()
	err = tc.run(work, "compile", compileArgs(tc, pkg, srcDir, archive)...)
	info.CompileDur = time.Since(t)
	if err != nil {
		return err
	}

	importcfg := filepath.Join(work, "importcfg.link")
	for retried := false; ; retried = true {
		cfg := "packagefile " + pkg + "=" + archive + "\n" + strings.Join(tc.deps, "\n") + "\n"
		if err := os.WriteFile(importcfg, []byte(cfg), 0o644); err != nil {
			return err
		}
		t = time.Now()
		// The output is named relative to work, as go build names it: some
		// linkers record a shared object's output path in it.
		err = tc.run(work, "link", linkArgs(tc, pkg, importcfg, archive, "kernel.so")...)
		info.LinkDur += time.Since(t)
		if err == nil || retried || !tc.stale() {
			break
		}
		// go trims export files unused for five days from its build
		// cache, so a long-lived process can outlive its probe: probe
		// afresh, once.
		t = time.Now()
		tc, err = probe(tc)
		info.ProbeDur += time.Since(t)
		if err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	return os.Rename(filepath.Join(work, "kernel.so"), filepath.Join(dir, "kernel.so"))
}

// toolchain is what a cold build needs from the host's Go installation.
type toolchain struct {
	toolDir, goroot, goVersion string
	// extld is the link's -extld flag: go env CC, as go build passes it.
	extld string
	// deps are the importcfg lines of runtime's plugin-mode dependency
	// set: the export files in the Go build cache that the link reads.
	deps []string
}

// The probe runs once per process (and again after ClearMemory or when its
// dependency set has gone stale); probes counts how often it ran. A failed
// probe is kept too, so a host without a usable toolchain pays for finding
// out once, not once per artifact key.
var (
	probeMu  sync.Mutex
	probed   *toolchain
	probeErr error
	probes   int
)

// probe returns the memoized toolchain (or the memoized failure), probing
// when there is neither or when the memoized toolchain is stale, the one a
// failed link was handed.
func probe(stale *toolchain) (*toolchain, error) {
	probeMu.Lock()
	defer probeMu.Unlock()
	if probeErr != nil || (probed != nil && probed != stale) {
		return probed, probeErr
	}
	probes++
	probed, probeErr = probeToolchain()
	return probed, probeErr
}

// probeToolchain asks the go command where its tools are and where the
// export files of runtime, runtime/cgo (and, under the race detector,
// runtime/race) and their dependencies are, built for plugins. A toolchain
// of another release than this binary's fails here, not in plugin.Open.
func probeToolchain() (*toolchain, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := goCmd(goBin, "env", "GOTOOLDIR", "GOVERSION", "GOROOT", "CC")
	if err != nil {
		return nil, err
	}
	env := strings.Split(string(out), "\n")
	if len(env) < 4 {
		return nil, unavailable("go env", fmt.Errorf("unexpected output %q", out))
	}
	tc := &toolchain{toolDir: env[0], goVersion: env[1], goroot: env[2], extld: "-extld=" + env[3]}
	if tc.goVersion != runtime.Version() {
		return nil, unavailable("go env GOVERSION", fmt.Errorf(
			"the toolchain is %s but this program was built by %s; a plugin must come from the same release",
			tc.goVersion, runtime.Version()))
	}
	args := []string{"list", "-buildmode=plugin", "-export", "-deps",
		"-f", "{{with .Export}}packagefile {{$.ImportPath}}={{.}}{{end}}"}
	pkgs := []string{"runtime", "runtime/cgo"}
	if raceEnabled {
		args, pkgs = append(args, "-race"), append(pkgs, "runtime/race")
	}
	if out, err = goCmd(goBin, append(args, pkgs...)...); err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(out), "\n") {
		if line != "" {
			tc.deps = append(tc.deps, line)
		}
	}
	return tc, nil
}

// goCmd runs the go command outside any module and workspace.
func goCmd(goBin string, args ...string) ([]byte, error) {
	cmd := exec.Command(goBin, args...)
	cmd.Dir = os.TempDir()
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "CGO_ENABLED=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, unavailable(strings.Join(cmd.Args, " "), fmt.Errorf("%w\n%s", err, bytes.TrimSpace(stderr.Bytes())))
	}
	return out, nil
}

// run runs one tool of the toolchain in dir.
func (tc *toolchain) run(dir, tool string, args ...string) error {
	cmd := exec.Command(filepath.Join(tc.toolDir, tool), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOROOT="+tc.goroot)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return unavailable(strings.Join(cmd.Args, " "), fmt.Errorf("%w\n%s", err, bytes.TrimSpace(out)))
	}
	return nil
}

// stale reports whether an export file of the dependency set is gone.
func (tc *toolchain) stale() bool {
	for _, line := range tc.deps {
		_, file, _ := strings.Cut(line, "=")
		if _, err := os.Stat(file); err != nil {
			return true
		}
	}
	return false
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
