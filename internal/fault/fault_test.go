package fault

import (
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("crash:2@30,stall:0@5:3,drop:1@10:2,join@40")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(p.Events))
	}
	want := []Event{
		{Kind: Crash, Slave: 2, At: 30 * time.Second},
		{Kind: Stall, Slave: 0, At: 5 * time.Second, Duration: 3 * time.Second},
		{Kind: LinkDrop, Slave: 1, At: 10 * time.Second, Duration: 2 * time.Second},
		{Kind: Join, At: 40 * time.Second},
	}
	for i, w := range want {
		if p.Events[i] != w {
			t.Errorf("event %d: got %+v, want %+v", i, p.Events[i], w)
		}
	}
	if joins := p.Joins(); len(joins) != 1 || joins[0] != 40*time.Second {
		t.Errorf("joins = %v", joins)
	}
	if _, err := ParseSpec("explode:1@2"); err == nil {
		t.Error("bad spec accepted")
	}
	if p, err := ParseSpec("none"); err != nil || len(p.Events) != 0 {
		t.Errorf("none: %v %v", p, err)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{Events: []Event{{Kind: Crash, Slave: -1, At: time.Second}}},
		{Events: []Event{{Kind: Stall, Slave: 0, At: time.Second}}}, // no duration
		{Events: []Event{{Kind: Crash, Slave: 0, At: -time.Second}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted", i)
		}
	}
	good := (&Plan{}).CrashAt(1, 5*time.Second).StallAt(0, time.Second, time.Second).JoinAt(10 * time.Second)
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInjector(t *testing.T) {
	p := (&Plan{}).
		CrashAt(2, 30*time.Second).
		StallAt(0, 5*time.Second, 3*time.Second).
		DropLinkAt(1, 10*time.Second, 2*time.Second)
	inj := NewInjector(p)
	if inj.Empty() {
		t.Fatal("injector reported empty")
	}
	if inj.Crashed(2, 29*time.Second) || !inj.Crashed(2, 30*time.Second) || !inj.Crashed(2, time.Hour) {
		t.Error("crash window wrong")
	}
	if inj.Crashed(0, time.Hour) {
		t.Error("uncrashed slave reported crashed")
	}
	if got := inj.StallUntil(0, 6*time.Second); got != 8*time.Second {
		t.Errorf("StallUntil = %v, want 8s", got)
	}
	if got := inj.StallUntil(0, 8*time.Second); got != 0 {
		t.Errorf("stall after window = %v", got)
	}
	if !inj.LinkDown(1, 11*time.Second) || inj.LinkDown(1, 13*time.Second) || inj.LinkDown(0, 11*time.Second) {
		t.Error("link windows wrong")
	}
	if !NewInjector(nil).Empty() {
		t.Error("nil plan not empty")
	}
}

func TestDetectorLeases(t *testing.T) {
	d := NewDetector(DetectorConfig{MissThreshold: 3, MinLease: 2 * time.Second, MaxLease: 20 * time.Second}, 4)
	// No interval observed yet: lease is the floor.
	if d.Lease() != 2*time.Second {
		t.Errorf("initial lease = %v", d.Lease())
	}
	d.ObserveInterval(1500 * time.Millisecond)
	if d.Lease() != 4500*time.Millisecond {
		t.Errorf("lease = %v, want 4.5s", d.Lease())
	}
	d.ObserveInterval(time.Hour)
	if d.Lease() != 20*time.Second {
		t.Errorf("lease cap = %v", d.Lease())
	}
	d.ObserveInterval(time.Second)

	for s := 0; s < 4; s++ {
		d.Observe(s, 10*time.Second)
	}
	d.Observe(1, 14*time.Second)
	// Lease 3s: at t=13.5s slaves 0,2,3 (last seen 10s) are expired.
	got := d.Expired(13500*time.Millisecond, []int{0, 1, 2, 3})
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("expired = %v", got)
	}
	// Observe never moves a lease backwards.
	d.Observe(1, 12*time.Second)
	if d.Deadline(1) != 14*time.Second+d.Lease() {
		t.Errorf("deadline moved backwards: %v", d.Deadline(1))
	}
	d.Reset(40 * time.Second)
	if len(d.Expired(40*time.Second+d.Lease()/2, []int{0, 1, 2, 3})) != 0 {
		t.Error("reset did not refresh leases")
	}
}

func TestCkptPolicy(t *testing.T) {
	p := CkptPolicy{MaxOverhead: 0.05, MinInterval: 2 * time.Second, MaxInterval: 15 * time.Second}
	if p.Should(time.Second, 0, 0) {
		t.Error("checkpoint before MinInterval")
	}
	// 100ms cost needs >= 2s of amortization at 5%.
	if !p.Should(3*time.Second, 0, 100*time.Millisecond) {
		t.Error("cheap checkpoint rejected")
	}
	// 1s cost needs 20s; at 10s it is unprofitable ...
	if p.Should(10*time.Second, 0, time.Second) {
		t.Error("expensive checkpoint accepted early")
	}
	// ... but MaxInterval forces it regardless.
	if !p.Should(15*time.Second, 0, time.Second) {
		t.Error("MaxInterval did not force a checkpoint")
	}
	if (CkptPolicy{Disable: true}).Should(time.Hour, 0, 0) {
		t.Error("disabled policy checkpointed")
	}
}

func TestLog(t *testing.T) {
	var l Log
	l.Add(30*time.Second, LogEvict, 2, "lease expired")
	l.Add(31*time.Second, LogRecover, -1, "epoch 1 from hook 12")
	if l.Count(LogEvict) != 1 || l.Count(LogRecover) != 1 || l.Count(LogJoin) != 0 {
		t.Errorf("counts wrong: %v", l.Events)
	}
	s := l.String()
	if s == "" || l.Events[0].String() == "" {
		t.Error("empty rendering")
	}
	var nilLog *Log
	nilLog.Add(0, LogCrash, 0, "ok") // must not panic
}
