// Distributed example: the master/slave runtime spread over real OS
// processes on one machine. The program builds the slave daemon
// (cmd/dlbd), launches four daemon processes listening on loopback TCP,
// and then runs the calibrated MM plan against them from an in-process
// master — the same netrun transport `dlbrun -slaves host:port,...` uses.
// Mid-run it SIGKILLs one daemon: the master's heartbeat lease expires,
// the dead slave is evicted, the survivors roll back to the last
// consistent checkpoint, and the run completes bit-identical to the
// sequential reference.
//
// Run from the repository root (it invokes `go build`):
//
//	go run ./examples/distributed
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/netrun"
)

func main() {
	// Build the slave daemon once; each instance is a real child process.
	dir, err := os.MkdirTemp("", "dlbd")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "dlbd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dlbd")
	if out, err := build.CombinedOutput(); err != nil {
		log.Fatalf("building dlbd (run from the repo root): %v\n%s", err, out)
	}

	fmt.Println("starting 4 dlbd slave daemons on loopback...")
	daemons := make([]*exec.Cmd, 4)
	addrs := make([]string, 4)
	for i := range daemons {
		// -drag slows the kernel down so the run is long enough to balance
		// and to survive losing a process; vary it per daemon to emulate a
		// heterogeneous machine room.
		drag := 15.0 + 5.0*float64(i%2)
		cmd, addr, err := spawnDaemon(bin, drag)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		daemons[i], addrs[i] = cmd, addr
		fmt.Printf("  slave %d: pid %d at %s (drag %g)\n", i, cmd.Process.Pid, addr, drag)
	}

	// Compile MM exactly as the simulator examples do: the plan hash both
	// sides derive must match, so master and daemons compile independently.
	prog := loopir.MatMul()
	params := map[string]int{"n": 256}
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}

	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		// Fault tolerance on (empty plan: no *injected* faults — the real
		// process kill below is the failure), with detection fast enough
		// for a demo run of a few seconds.
		Fault:  &fault.Plan{},
		Detect: fault.DetectorConfig{MinLease: 400 * time.Millisecond, HeartbeatEvery: 100 * time.Millisecond},
		Ckpt:   fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}

	type outcome struct {
		res *dlb.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := netrun.RunMaster(cfg, addrs, netrun.MasterOptions{})
		done <- outcome{res, err}
	}()

	time.Sleep(800 * time.Millisecond)
	fmt.Printf("\nSIGKILL slave 2 (pid %d) mid-run...\n", daemons[2].Process.Pid)
	if err := daemons[2].Process.Kill(); err != nil {
		log.Fatal(err)
	}

	out := <-done
	if out.err != nil {
		log.Fatal(out.err)
	}
	res := out.res

	// Verify against the sequential run, as every test does.
	inst, err := loopir.NewInstance(prog, params)
	if err != nil {
		log.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for name, want := range inst.Arrays {
		if got := res.Final[name]; got != nil {
			if d := want.MaxAbsDiff(got); d > worst {
				worst = d
			}
		}
	}

	fmt.Printf("\nrun complete in %v wall clock\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  balancing phases: %d, moves: %d (%d units)\n", res.Phases, res.Moves, res.UnitsMoved)
	fmt.Printf("  evicted slaves:   %v (recoveries: %d, checkpoints: %d)\n", res.Evicted, res.Recoveries, res.Checkpoints)
	fmt.Printf("  max |diff| vs sequential reference: %g\n", worst)
	if worst != 0 {
		log.Fatal("distributed result diverged from the sequential reference")
	}
	fmt.Println("  bit-identical to the sequential run")
}

// spawnDaemon starts one dlbd child and reads its bound address from the
// "dlbd listening <addr>" startup line.
func spawnDaemon(bin string, drag float64) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, "-quiet", "-drag", fmt.Sprintf("%g", drag))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		return nil, "", fmt.Errorf("dlbd produced no startup line: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "dlbd" || fields[1] != "listening" {
		return nil, "", fmt.Errorf("unexpected dlbd startup line %q", sc.Text())
	}
	go func() { // drain later output so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	return cmd, fields[2], nil
}
