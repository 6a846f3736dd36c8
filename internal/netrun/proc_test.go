package netrun

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dlb"
	"repro/internal/fault"
)

// buildDlbd compiles the slave daemon binary once per test run.
func buildDlbd(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "dlbd")
	cmd := exec.Command(goTool, "build", "-o", bin, "repro/cmd/dlbd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building dlbd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one spawned dlbd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// spawnDaemon starts a dlbd child on 127.0.0.1 and parses its bound
// address from the "dlbd listening <addr>" stdout line.
func spawnDaemon(t *testing.T, bin string, drag float64) *daemon {
	t.Helper()
	args := []string{"-quiet"}
	if drag > 1 {
		args = append(args, "-drag", strconv.FormatFloat(drag, 'f', -1, 64))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatalf("dlbd produced no startup line (err %v)", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "dlbd" || fields[1] != "listening" {
		t.Fatalf("unexpected dlbd startup line %q", sc.Text())
	}
	d.addr = fields[2]
	go func() { // drain any later output so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	return d
}

// TestMultiProcessMM is the acceptance harness: a master plus four dlbd
// slave OS processes over loopback TCP run the calibrated MM plan; one
// slave process is SIGKILLed mid-run, once the run has committed its first
// checkpoint. The run must survive through the PR-1 evict/rollback path,
// hand every unit of the dead node to a live slave, and finish
// bit-identical to the sequential reference.
func TestMultiProcessMM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	bin := buildDlbd(t)
	daemons := make([]*daemon, 4)
	addrs := make([]string, 4)
	for i := range daemons {
		daemons[i] = spawnDaemon(t, bin, 60)
		addrs[i] = daemons[i].addr
	}

	plan, params := testPlan(t, "mm", 256, 0)
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		Fault:       &fault.Plan{},
		Detect:      ftDetect(),
		Ckpt:        fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{})

	parts := int64(len(addrs))
	if raceDetector {
		// A race-built master with daemons that are not race-built commits
		// no checkpoint before the run ends (0 in a 2.2 s run): kill on the
		// live session, and the recovery restarts from the initial cut.
		parts = 0
	}
	live(2, parts)
	if err := daemons[2].cmd.Process.Kill(); err != nil {
		t.Fatalf("killing slave process 2: %v", err)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !evictedHas(out.res, 2) {
		t.Errorf("evicted = %v, want killed process's node 2 among them", out.res.Evicted)
	}
	if out.res.Recoveries < 1 {
		t.Errorf("process kill did not trigger a recovery")
	}
	if out.res.Phases < 1 {
		t.Errorf("no balancing phases")
	}
	// The recovery reassigned the dead node's work. (Whether the balancer
	// then also crossed its 10 % move threshold depends on timing and is
	// not what this test is about.)
	if len(out.res.Owner) == 0 {
		t.Errorf("no final ownership map")
	}
	for u, o := range out.res.Owner {
		if o < 0 || o >= len(daemons) || evictedHas(out.res, o) {
			t.Fatalf("unit %d ends owned by %d, not a live slave (evicted %v)", u, o, out.res.Evicted)
		}
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}

// TestDaemonSIGTERMDrains is the shutdown regression: SIGTERM to a dlbd
// mid-run must drain the in-flight session (the master finishes cleanly,
// nobody is evicted), exit with status 0, and release the bound port. The
// old behavior tore the session down immediately, which failed the run and
// could leak the port to the kernel's lingering-socket grace.
func TestDaemonSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	bin := buildDlbd(t)
	daemons := make([]*daemon, 4)
	addrs := make([]string, 4)
	for i := range daemons {
		daemons[i] = spawnDaemon(t, bin, 10)
		addrs[i] = daemons[i].addr
	}

	plan, params := testPlan(t, "mm", 256, 0)
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{})

	// The default checkpoint interval (2 s) outlasts the run: a live
	// session on daemon 1 is the progress mark.
	live(1, 0)
	if err := daemons[1].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling daemon 1: %v", err)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Evicted) != 0 {
		t.Errorf("evicted = %v; a draining daemon must finish its run, not drop it", out.res.Evicted)
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))

	// The daemon had no more work after the drain: it must exit 0 promptly
	// and leave its port rebindable.
	waited := make(chan error, 1)
	go func() { waited <- daemons[1].cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM drain")
	}
	ln, err := net.Listen("tcp", daemons[1].addr)
	if err != nil {
		t.Fatalf("port not rebindable after SIGTERM: %v", err)
	}
	ln.Close()
}

// TestMultiProcessSOR runs the calibrated SOR plan over four dlbd child
// processes without interference: the plain multi-process deployment path.
func TestMultiProcessSOR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	bin := buildDlbd(t)
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i] = spawnDaemon(t, bin, 1).addr
	}
	plan, params := testPlan(t, "sor", 128, 8)
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	res, err := RunMaster(cfg, addrs, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
}
