package vtime

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at []time.Duration
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		at = append(at, p.Now())
		p.Sleep(5 * time.Millisecond)
		at = append(at, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 15*time.Millisecond {
		t.Fatalf("timestamps = %v, want [10ms 15ms]", at)
	}
	if k.Now() != 15*time.Millisecond {
		t.Fatalf("final time = %v, want 15ms", k.Now())
	}
}

func TestNegativeSleepTreatedAsZero(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("time moved backwards or forwards: %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestInterleavingIsTimestampOrdered(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		order = append(order, "slow")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, "fast")
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v, want [fast slow]", order)
	}
}

func TestEqualTimestampsRunInPostOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSendRecvDelay(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("inbox")
	var got Message
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Send(mb, "hello", 7*time.Millisecond)
	})
	k.Spawn("receiver", func(p *Proc) {
		got = p.Recv(mb)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Data != "hello" {
		t.Fatalf("data = %v, want hello", got.Data)
	}
	if got.At != 12*time.Millisecond {
		t.Fatalf("delivery at %v, want 12ms", got.At)
	}
	if got.From != "sender" {
		t.Fatalf("from = %q, want sender", got.From)
	}
}

func TestRecvBlocksUntilDelivery(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("inbox")
	var recvAt time.Duration
	k.Spawn("receiver", func(p *Proc) {
		p.Recv(mb)
		recvAt = p.Now()
	})
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(30 * time.Millisecond)
		p.Send(mb, 1, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt != 30*time.Millisecond {
		t.Fatalf("received at %v, want 30ms", recvAt)
	}
}

func TestMessagesDeliveredInOrder(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("inbox")
	var got []int
	k.Spawn("sender", func(p *Proc) {
		p.Send(mb, 1, 10*time.Millisecond)
		p.Send(mb, 2, 5*time.Millisecond) // arrives first
		p.Send(mb, 3, 10*time.Millisecond)
	})
	k.Spawn("receiver", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Recv(mb).Data.(int))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTryRecv(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("inbox")
	k.Spawn("p", func(p *Proc) {
		if _, ok := p.TryRecv(mb); ok {
			t.Error("TryRecv on empty mailbox returned ok")
		}
		p.Send(mb, 42, 0)
		p.Yield() // let delivery event fire
		m, ok := p.TryRecv(mb)
		if !ok || m.Data != 42 {
			t.Errorf("TryRecv = %v, %v; want 42, true", m.Data, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("never")
	k.Spawn("stuck", func(p *Proc) {
		p.Recv(mb)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", de.Blocked)
	}
}

func TestVirtualTimeLimit(t *testing.T) {
	k := NewKernel()
	k.SetLimit(time.Second)
	k.Spawn("runaway", func(p *Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
		}
	})
	if err := k.Run(); err != ErrLimit {
		t.Fatalf("Run = %v, want ErrLimit", err)
	}
	if k.Now() != time.Second {
		t.Fatalf("time = %v, want 1s", k.Now())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	k := NewKernel()
	var childAt time.Duration
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		k.Spawn("child", func(c *Proc) {
			childAt = c.Now()
		})
		p.Sleep(10 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childAt != 10*time.Millisecond {
		t.Fatalf("child started at %v, want 10ms", childAt)
	}
}

func TestInjectFromOutside(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("inbox")
	k.Inject(mb, "external", 25*time.Millisecond)
	var at time.Duration
	k.Spawn("receiver", func(p *Proc) {
		m := p.Recv(mb)
		at = p.Now()
		if m.From != "" {
			t.Errorf("from = %q, want empty", m.From)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 25*time.Millisecond {
		t.Fatalf("received at %v, want 25ms", at)
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		mb := k.NewMailbox("sink")
		var order []string
		const n = 10
		for i := 0; i < n; i++ {
			i := i
			name := string(rune('a' + i))
			k.Spawn(name, func(p *Proc) {
				p.Sleep(time.Duration((i*7)%5) * time.Millisecond)
				p.Send(mb, name, time.Duration(i)*time.Microsecond)
			})
		}
		k.Spawn("collector", func(p *Proc) {
			for i := 0; i < n; i++ {
				order = append(order, p.Recv(mb).Data.(string))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic order: %v vs %v", first, again)
			}
		}
	}
}

func TestDoubleRecvPanics(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("shared")
	k.Spawn("r1", func(p *Proc) { p.Recv(mb) })
	k.Spawn("r2", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("second Recv on same mailbox did not panic")
			}
			// Unblock r1 so the kernel can finish.
			p.Send(mb, 0, 0)
		}()
		p.Recv(mb)
	})
	_ = k.Run()
}

// TestRunLeavesNoGoroutines: however Run ends, every process it leaves
// unfinished is unwound (its defers run) and its coroutine exits, and a
// process's panic is Run's error, not the program's.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		limit time.Duration
		body  func(p *Proc)
		check func(err error) bool
	}{
		{"normal", 0, func(p *Proc) { p.Sleep(time.Second) },
			func(err error) bool { return err == nil }},
		{"deadlock", 0, func(p *Proc) { p.Recv(p.Kernel().NewMailbox("never")) },
			func(err error) bool { return errors.As(err, new(*DeadlockError)) }},
		{"limit", time.Second, func(p *Proc) {
			for {
				p.Sleep(300 * time.Millisecond)
			}
		}, func(err error) bool { return err == ErrLimit }},
		{"panic", 0, func(p *Proc) {
			p.Sleep(time.Second)
			p.Kernel().Spawn("unborn", func(*Proc) { panic("started after Run ended") })
			var a []int
			_ = a[p.Now()] // index out of range: a real bug, not a reap
		}, func(err error) bool {
			var pp *ProcPanic
			if !errors.As(err, &pp) {
				return false
			}
			_, bug := pp.Value.(runtime.Error)
			return bug && pp.Proc == "body" && strings.HasPrefix(err.Error(), "body panicked: ") &&
				strings.Contains(string(pp.Stack), "TestRunLeavesNoGoroutines")
		}},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		k := NewKernel()
		k.SetLimit(c.limit)
		unwound := 0
		k.Spawn("body", func(p *Proc) {
			defer func() { unwound++ }()
			c.body(p)
		})
		k.Spawn("late", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(2 * time.Second)
			if c.name != "normal" {
				p.Recv(k.NewMailbox("never"))
			}
		})
		if err := k.Run(); !c.check(err) {
			t.Errorf("%s: Run = %v", c.name, err)
		}
		if unwound != 2 {
			t.Errorf("%s: %d of 2 processes ran their defers", c.name, unwound)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, n, base)
		}
	}
}

var benchSink float64

// BenchmarkSwitchUnderLoad is the switch as a simulated run pays it: eight
// processes each do a few microseconds of real work between Sleeps. A
// back-to-back ping-pong keeps the peer thread spinning and never parks it;
// with work between switches every hand-off to another thread is a wake-up.
func BenchmarkSwitchUnderLoad(b *testing.B) {
	const procs = 8
	k := NewKernel()
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn(string(rune('a'+i)), func(p *Proc) {
			x := float64(i)
			for n := 0; n < b.N; n++ {
				for j := 0; j < 2000; j++ {
					x = x*0.999 + 1
				}
				p.Sleep(time.Millisecond)
			}
			benchSink += x
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
