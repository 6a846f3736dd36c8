package dlb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// bytesPinned is the simulated network's traffic per cell: messages and
// bytes sent, summed over the master and every slave. Recorded at a31df8c,
// where each call site still typed its own byte count.
var bytesPinned = map[string][2]int{
	"mm/pipelined/g0/nofault":            {191, 206080},
	"mm/pipelined/g0/crash":              {541, 698968},
	"mm/pipelined/g2/nofault":            {178, 211520},
	"sor/pipelined/g0/nofault":           {161, 80368},
	"sor/pipelined/g0/crash":             {505, 174992},
	"sor/pipelined/g2/nofault":           {158, 80336},
	"lu/pipelined/g0/nofault":            {373, 157088},
	"lu/pipelined/g0/crash":              {653, 259496},
	"lu/pipelined/g2/nofault":            {375, 157712},
	"jacobi/pipelined/g0/nofault":        {233, 165856},
	"jacobi/pipelined/g0/crash":          {464, 313664},
	"jacobi/pipelined/g2/nofault":        {234, 179232},
	"spmv/pipelined/g0/nofault":          {93, 4528256},
	"spmv/pipelined/g0/crash":            {359, 10193448},
	"spmv/pipelined/g2/nofault":          {90, 4553216},
	"sor/synchronous/g2/nofault":         {150, 79360},
	"mm/pipelined/g0/join":               {500, 628312},
	"jacobi-converge/pipelined/g0/crash": {690, 294296},
}

// TestMsgBytesUnknownPayloadPanics: a payload without a size model is a
// call-site bug, named by type rather than priced at zero.
func TestMsgBytesUnknownPayloadPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "struct {}") {
			t.Errorf("msgBytes(struct{}{}) recovered %v, want a panic naming struct {}", r)
		}
	}()
	msgBytes(struct{}{})
}

// TestSimulatedBytesPinned pins what the simulated network carried — every
// message's size feeds cluster.TransferTime, so a drift here moves virtual
// time, and a sub-nanosecond one can hide inside a rounded Elapsed. The
// cells cover every state-carrying message: the scatter and gather of five
// programs, checkpoints and recovery (a crash at the program's goldenProgs
// time), the group relay's aggregated reports and leader-relayed
// instructions (Groups 2), a synchronous run, an elastic join, and
// reduction state (jacobi-converge). A Groups 2 crash cell pins the
// refusal (ErrGroupsWithFaults) instead. -print-golden prints the literals.
func TestSimulatedBytesPinned(t *testing.T) {
	cc := cluster.Config{
		Slaves: 6,
		Load:   []cluster.LoadProfile{cluster.Constant(2), nil, cluster.Constant(1)},
	}
	type cell struct {
		prog, mode string
		groups     int
		fault      string // nofault, crash or join
	}
	var cells []cell
	for _, p := range goldenProgs[:5] {
		for _, groups := range []int{0, 2} {
			for _, f := range []string{"nofault", "crash"} {
				cells = append(cells, cell{p.name, "pipelined", groups, f})
			}
		}
	}
	cells = append(cells,
		cell{"sor", "synchronous", 2, "nofault"},
		cell{"mm", "pipelined", 0, "join"},
		cell{"jacobi-converge", "pipelined", 0, "crash"})

	for _, c := range cells {
		key := fmt.Sprintf("%s/%s/g%d/%s", c.prog, c.mode, c.groups, c.fault)
		t.Run(key, func(t *testing.T) {
			var plan *compile.Plan
			params := map[string]int{"n": 48, "maxiter": 8}
			crashAt := 1500 * time.Millisecond
			flopCost := 100 * time.Microsecond
			switch c.prog {
			case "spmv":
				plan = irregularPlan(t, c.prog)
			case "jacobi-converge":
				var err error
				plan, err = compile.Compile(loopir.Library()[c.prog], compile.Options{Dist: compile.LibraryDist(c.prog)})
				if err != nil {
					t.Fatal(err)
				}
			default:
				plan = planFor(t, c.prog)
			}
			for _, p := range goldenProgs {
				if p.name == c.prog {
					params, crashAt, flopCost = p.params, p.crashAt, p.flopCost
				}
			}
			var fp *fault.Plan
			switch c.fault {
			case "crash":
				fp = (&fault.Plan{}).CrashAt(4, crashAt)
			case "join":
				fp = (&fault.Plan{}).JoinAt(600 * time.Millisecond)
			}
			cfg := ftConfig(fp)
			cfg.FlopCost = flopCost
			cfg.Synchronous = c.mode == "synchronous"
			cfg.Groups = c.groups
			cfg.GroupExchangeEvery = 2
			if c.groups > 1 && fp != nil {
				cfg.Plan, cfg.Params = plan, params
				if _, err := Run(cfg, cc); !errors.Is(err, ErrGroupsWithFaults) {
					t.Fatalf("grouped fault-tolerant run: err = %v, want ErrGroupsWithFaults", err)
				}
				return
			}
			res := runAndVerify(t, plan, params, cfg, cc)
			if (c.fault == "crash" && len(res.Evicted) == 0) || (c.fault == "join" && len(res.Joined) == 0) {
				t.Fatalf("the %s did not happen (evicted %v, joined %v)", c.fault, res.Evicted, res.Joined)
			}
			msgs, bytes := res.MasterUsage.MessagesSent, res.MasterUsage.BytesSent
			for _, u := range res.Usage {
				msgs += u.MessagesSent
				bytes += u.BytesSent
			}
			if *printGolden {
				fmt.Printf("\t%q: {%d, %d},\n", key, msgs, bytes)
				return
			}
			want, ok := bytesPinned[key]
			if !ok {
				t.Fatalf("no pinned traffic recorded for %s", key)
			}
			if got := [2]int{msgs, bytes}; got != want {
				t.Errorf("simulated traffic drifted: got %d messages / %d bytes, want %d / %d", msgs, bytes, want[0], want[1])
			}
		})
	}
}
