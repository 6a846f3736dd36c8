package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dlb"
	"repro/internal/fault"
)

func TestRoundTripInMemory(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msgs := []Envelope{
		{Tag: "status", From: 2, Payload: dlb.StatusMsg{
			Phase: 3, HookIndex: 7, Units: 128, Busy: 250 * time.Millisecond,
			MoveCost: time.Millisecond, InterCost: 200 * time.Microsecond,
		}},
		{Tag: "instr", From: -1, Payload: dlb.InstrMsg{
			Phase: 3, HookIndex: 7, SkipHooks: 2,
			Moves: []core.Move{{From: 0, To: 1, Units: []int{4, 5, 6}}},
		}},
		{Tag: "work", From: 0, Payload: dlb.WorkMsg{
			Units: []int{4, 5},
			Data:  map[string][][]float64{"b": {{1, 2}, {3, 4}}},
			Ghosts: map[string]map[int][]float64{
				"b": {6: {9, 9}},
			},
		}},
		{Tag: "pipe:b", From: 1, Payload: dlb.SliceMsg{Unit: 3, RowLo: 5, RowHi: 10, Vals: []float64{1.5, 2.5}}},
		{Tag: "gather", From: 2, Payload: dlb.GatherMsg{Data: map[string]map[int][]float64{"c": {0: {7}}}}},
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Tag, err)
		}
	}
	for _, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Tag, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", got, want)
		}
	}
}

// TestTCPStatusInstructionExchange runs one pipelined balancing phase over
// real TCP loopback: a master accepts N slaves, collects their statuses,
// and answers with an instruction carrying moves — the same message flow
// the simulated runtime uses.
func TestTCPStatusInstructionExchange(t *testing.T) {
	const slaves = 4
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	instr := dlb.InstrMsg{
		Phase:     0,
		SkipHooks: 3,
		Moves:     []core.Move{{From: 0, To: 1, Units: []int{9}}},
	}

	var wg sync.WaitGroup
	wg.Add(1)
	masterErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		conns := make([]*Conn, slaves)
		for i := 0; i < slaves; i++ {
			nc, err := l.Accept()
			if err != nil {
				masterErr <- err
				return
			}
			defer nc.Close()
			conns[i] = NewConn(nc)
		}
		seen := map[int]bool{}
		byFrom := map[int]*Conn{}
		for _, c := range conns {
			e, err := c.Recv()
			if err != nil {
				masterErr <- err
				return
			}
			st, ok := e.Payload.(dlb.StatusMsg)
			if !ok || e.Tag != "status" {
				masterErr <- fmt.Errorf("unexpected message %q %T", e.Tag, e.Payload)
				return
			}
			if st.Units != float64(100+e.From) {
				masterErr <- fmt.Errorf("slave %d reported %v units", e.From, st.Units)
				return
			}
			seen[e.From] = true
			byFrom[e.From] = c
		}
		if len(seen) != slaves {
			masterErr <- fmt.Errorf("saw %d distinct slaves", len(seen))
			return
		}
		for i := 0; i < slaves; i++ {
			if err := byFrom[i].Send(Envelope{Tag: "instr", From: -1, Payload: instr}); err != nil {
				masterErr <- err
				return
			}
		}
		masterErr <- nil
	}()

	results := make(chan error, slaves)
	for i := 0; i < slaves; i++ {
		go func(id int) {
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				results <- err
				return
			}
			defer nc.Close()
			c := NewConn(nc)
			err = c.Send(Envelope{Tag: "status", From: id, Payload: dlb.StatusMsg{
				Phase: 0, Units: float64(100 + id), Busy: time.Second,
			}})
			if err != nil {
				results <- err
				return
			}
			e, err := c.Recv()
			if err != nil {
				results <- err
				return
			}
			got, ok := e.Payload.(dlb.InstrMsg)
			if !ok {
				results <- fmt.Errorf("slave %d: payload %T", id, e.Payload)
				return
			}
			if !reflect.DeepEqual(got, instr) {
				results <- fmt.Errorf("slave %d: instruction mismatch: %#v", id, got)
				return
			}
			results <- nil
		}(i)
	}
	for i := 0; i < slaves; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := <-masterErr; err != nil {
		t.Fatal(err)
	}
}

func TestLargeWorkMessage(t *testing.T) {
	// A realistic work-movement payload (64 columns of a 2000-row array
	// across two arrays) survives framing.
	var buf bytes.Buffer
	c := NewConn(&buf)
	w := dlb.WorkMsg{Data: map[string][][]float64{}}
	for _, arr := range []string{"b", "c"} {
		var slices [][]float64
		for u := 0; u < 64; u++ {
			col := make([]float64, 2000)
			for i := range col {
				col[i] = float64(u*2000 + i)
			}
			slices = append(slices, col)
			w.Units = append(w.Units, u)
		}
		w.Data[arr] = slices
	}
	if err := c.Send(Envelope{Tag: "work", From: 0, Payload: w}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	gw := got.Payload.(dlb.WorkMsg)
	if len(gw.Data["b"]) != 64 || gw.Data["c"][63][1999] != float64(63*2000+1999) {
		t.Fatal("large payload corrupted")
	}
}

// TestRoundTripFaultMessages covers every fault-tolerance message type:
// heartbeats, eviction, checkpoint request/part, join, adoption, and the
// completion commit.
func TestRoundTripFaultMessages(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msgs := []Envelope{
		{Tag: "hb", From: 3, Payload: dlb.HeartbeatMsg{Epoch: 2, Phase: 9, HookIndex: 41}},
		{Tag: "evict", From: -1, Payload: dlb.EvictMsg{Epoch: 2, Reason: "lease expired"}},
		{Tag: "ckptreq", From: -1, Payload: dlb.CheckpointRequestMsg{Epoch: 2, Seq: 5}},
		{Tag: "ckpt", From: 1, Payload: dlb.CheckpointMsg{
			Cut: fault.Cut{
				Seq: 5, Hook: 40, Phase: 8, NextContact: 44, Slaves: 4,
				Owner:      []int{0, 0, 1, 1, 2, 2, 3, 3},
				Active:     []bool{true, true, true, true, true, true, false, false},
				Replicated: map[string][]float64{"p": {7, 8}},
				RedSnap:    map[string][]float64{"res": {0.25}},
			},
			Epoch: 2, Slave: 1, Meta: true,
			Owned: map[string]map[int][]float64{"b": {12: {1, 2, 3}}},
			Red:   map[string][]float64{"res": {0.5}},
		}},
		{Tag: "join", From: 4, Payload: dlb.JoinMsg{Slave: 4}},
		{Tag: "recover", From: -1, Payload: dlb.AdoptMsg{
			Cut: fault.Cut{
				Seq: 5, Hook: 40, Phase: 8, NextContact: 44, Slaves: 5,
				Owner:      []int{0, 0, 2, 2, 3, 3, 4, 4},
				Active:     []bool{true, true, true, true, true, true, true, true},
				Replicated: map[string][]float64{"p": {7, 8}},
				RedSnap:    map[string][]float64{"res": {0.25}},
			},
			Epoch: 3,
			Alive: []bool{true, false, true, true, true},
			Owned: map[string]map[int][]float64{"b": {0: {4, 5}, 2: {6}}},
			Red:   map[string][]float64{"res": {0.75}},
		}},
		{Tag: "finack", From: -1, Payload: dlb.FinAckMsg{Epoch: 3}},
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Tag, err)
		}
	}
	for _, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Tag, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", got, want)
		}
	}
}

// TestTruncatedFrame asserts a frame cut mid-payload surfaces as a decode
// error, not a hang or a silent partial message.
func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(Envelope{Tag: "hb", From: 0, Payload: dlb.HeartbeatMsg{Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{3, len(whole) / 2, len(whole) - 1} {
		trunc := bytes.NewBuffer(append([]byte(nil), whole[:cut]...))
		if _, err := NewConn(trunc).Recv(); err == nil {
			t.Fatalf("truncated frame (cut at %d/%d) decoded without error", cut, len(whole))
		}
	}
}

func TestFrameLimit(t *testing.T) {
	f := &framed{rw: &bytes.Buffer{}, limit: DefaultMaxFrame}
	if _, err := f.Write(make([]byte, DefaultMaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameLimitTyped asserts both directions reject oversized frames with
// a *FrameLimitError carrying the offending size and the active limit.
func TestFrameLimitTyped(t *testing.T) {
	var buf bytes.Buffer
	send := NewConn(&buf)
	send.SetMaxFrame(64)
	big := make([]float64, 1024)
	err := send.Send(Envelope{Tag: "reduce:r", From: 1, Payload: big})
	var fe *FrameLimitError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized send: got %v, want *FrameLimitError", err)
	}
	if fe.Limit != 64 || fe.Size <= 64 {
		t.Fatalf("bad error fields: size %d limit %d", fe.Size, fe.Limit)
	}

	// Inbound: encode unrestricted, decode with a tight limit.
	buf.Reset()
	if err := NewConn(&buf).Send(Envelope{Tag: "reduce:r", From: 1, Payload: big}); err != nil {
		t.Fatal(err)
	}
	recv := NewConn(&buf)
	recv.SetMaxFrame(64)
	_, err = recv.Recv()
	fe = nil
	if !errors.As(err, &fe) {
		t.Fatalf("oversized recv: got %v, want *FrameLimitError", err)
	}
	if fe.Limit != 64 {
		t.Fatalf("bad limit: %d", fe.Limit)
	}
}

// TestControlFrameRoundTrip exercises the netrun connection-lifecycle
// frames through a full encode/decode cycle.
func TestControlFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	frames := []Envelope{
		{Tag: TagStart, From: -1, Payload: StartMsg{
			Version: 1, Node: 2, Slaves: 4, Total: 8, PlanHash: "abc",
			MasterAddr: "127.0.0.1:9", Roster: map[int]string{0: "127.0.0.1:1"},
			Spec: RunSpec{
				Source: "program mm ...", Params: map[string]int{"n": 64},
				DistDims: map[string]int{"c": 1}, DistLoops: []string{"j"},
				Grain: 3, DLB: true, HeartbeatEvery: 100 * time.Millisecond,
				FaultSpec: "crash:1@0.5",
			},
		}},
		{Tag: TagHello, From: 2, Payload: HelloMsg{Version: 1, Node: 2, PlanHash: "abc", PeerAddr: "127.0.0.1:2", Join: true}},
		{Tag: TagRoster, From: -1, Payload: RosterMsg{Addrs: map[int]string{0: "a", 1: "b"}}},
		{Tag: TagPeerHello, From: 3, Payload: PeerHelloMsg{From: 3, Run: "9f1c"}},
		{Tag: TagReject, From: -1, Payload: RejectMsg{Code: RejectDuplicate, Detail: "node 2"}},
	}
	for _, e := range frames {
		if err := c.Send(e); err != nil {
			t.Fatalf("send %s: %v", e.Tag, err)
		}
	}
	for _, want := range frames {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Tag, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}

// countingRW counts the Write and Read calls that reach the stream — on a
// TCP_NODELAY socket each Write is a segment and a wake-up of the peer.
type countingRW struct {
	bytes.Buffer
	writes, reads int
}

func (c *countingRW) Write(p []byte) (int, error) { c.writes++; return c.Buffer.Write(p) }
func (c *countingRW) Read(p []byte) (int, error)  { c.reads++; return c.Buffer.Read(p) }

// TestFrameIsOneWrite: a steady-state envelope leaves as exactly one Write
// on both codecs (prefix and payload together; gob's first use of a type
// also sends its definition, so the second envelope is the one counted), and
// queued frames are read through a buffer, not prefix and payload apart.
func TestFrameIsOneWrite(t *testing.T) {
	ghost := Envelope{Tag: "ghost:a", From: 1, Payload: dlb.SliceMsg{Unit: 7, RowLo: -1, RowHi: -1, Vals: make([]float64, 512)}}
	status := Envelope{Tag: "status", From: 1, Payload: dlb.StatusMsg{Phase: 3, HookIndex: 12, Units: 96}}
	for _, tc := range []struct {
		name   string
		binary bool
		env    Envelope
	}{
		{"binary/ghost", true, ghost},
		{"gob/ghost", false, ghost},
		{"binary/status", true, status},
		{"gob/status", false, status},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rw countingRW
			c := NewConn(&rw)
			c.SetBinary(tc.binary)
			if err := c.Send(tc.env); err != nil {
				t.Fatal(err)
			}
			const burst = 3
			rw.writes = 0
			for i := 0; i < burst; i++ {
				if err := c.Send(tc.env); err != nil {
					t.Fatal(err)
				}
			}
			if rw.writes != burst {
				t.Errorf("%d envelopes took %d Writes, want one each", burst, rw.writes)
			}
			for i := 0; i < burst+1; i++ {
				got, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.env) {
					t.Fatalf("round trip mismatch:\n got  %#v\n want %#v", got, tc.env)
				}
			}
			if rw.reads > burst+1 {
				t.Errorf("%d queued frames took %d Reads of the stream, want at most one each", burst+1, rw.reads)
			}
		})
	}
}
