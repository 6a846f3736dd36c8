package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dlb"
	"repro/internal/fault"
)

// bulkMessages is one representative envelope per binary-codec message
// type, exercising nested maps, negative ints, empty sections, and
// non-trivial float payloads.
func bulkMessages() []Envelope {
	return []Envelope{
		{Tag: "work", From: 2, Payload: dlb.WorkMsg{
			Units: []int{4, 5, 9},
			Data: map[string][][]float64{
				"b": {{1.5, -2.25, 3}, {4, 5, 6}, {7, 8, 9}},
				"c": {{0.125}, {-0.5}, {1e300}},
			},
			Ghosts: map[string]map[int][]float64{"b": {3: {9, 9}, 10: {-1, -2}}},
		}},
		{Tag: "work-empty", From: 0, Payload: dlb.WorkMsg{Units: []int{1}}},
		{Tag: "pipe:b", From: 1, Payload: dlb.SliceMsg{Unit: 3, RowLo: -1, RowHi: -1, Vals: []float64{1.5, 2.5, -3.5}}},
		{Tag: "init", From: -1, Payload: dlb.InitMsg{
			Owned:      map[string]map[int][]float64{"a": {0: {1, 2}, 1: {3, 4}}, "b": {7: {5}}},
			Replicated: map[string][]float64{"p": {7, 8, 9}},
		}},
		{Tag: "gather", From: 3, Payload: dlb.GatherMsg{
			Data:    map[string]map[int][]float64{"c": {0: {7}, 2: {8, 9}}},
			Reduced: map[string][]float64{"res": {0.25}},
		}},
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
		{Tag: "recover", From: -1, Payload: dlb.AdoptMsg{
			Cut: fault.Cut{
				Seq: 5, Hook: -1, Phase: 8, NextContact: 44, Slaves: 5,
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
		{Tag: "reduce:r", From: 2, Payload: []float64{1, -2, 3.75, 1e-300}},
		{Tag: "status", From: 4, Payload: dlb.StatusMsg{
			Phase: 3, HookIndex: 40, Units: 9.25, Busy: 260 * time.Millisecond,
			MoveCost: time.Millisecond, InterCost: 300 * time.Microsecond, Epoch: 1,
			CostBlocks: []dlb.CostBlock{{Lo: 0, Hi: 32, PerUnit: 1.5e-6}, {Lo: 40, Hi: 41, PerUnit: 0.012}},
		}},
		{Tag: "done", From: 2, Payload: dlb.StatusMsg{
			Phase: 3, HookIndex: 40, Epoch: 2, AotUnits: 12, KernelUnits: 96, FallbackUnits: 4,
			OverlapRounds: 7, OverlapFallback: 2,
		}},
		{Tag: "instr", From: -1, Payload: dlb.InstrMsg{
			Phase: 3, HookIndex: 40, SkipHooks: 12, Epoch: 1, CkptSeq: 2,
			Moves: []core.Move{
				{From: 3, To: 4, Units: []int{30, 31, 32}},
				{From: 5, To: 6, Units: []int{47}},
			},
		}},
		{Tag: "instr-empty", From: -1, Payload: dlb.InstrMsg{}},
	}
}

// TestBinaryRoundTripDifferential sends every bulk message type through
// both codecs and demands bit-identical results: the binary round trip
// must equal the gob round trip exactly (gob is the oracle).
func TestBinaryRoundTripDifferential(t *testing.T) {
	for _, env := range bulkMessages() {
		var gb bytes.Buffer
		gc := NewConn(&gb)
		if err := gc.Send(env); err != nil {
			t.Fatalf("%s: gob send: %v", env.Tag, err)
		}
		viaGob, err := gc.Recv()
		if err != nil {
			t.Fatalf("%s: gob recv: %v", env.Tag, err)
		}

		var bb bytes.Buffer
		bc := NewConn(&bb)
		bc.SetBinary(true)
		if err := bc.Send(env); err != nil {
			t.Fatalf("%s: binary send: %v", env.Tag, err)
		}
		viaBin, err := bc.Recv()
		if err != nil {
			t.Fatalf("%s: binary recv: %v", env.Tag, err)
		}
		if !reflect.DeepEqual(viaBin, viaGob) {
			t.Errorf("%s: binary round trip diverges from gob:\n binary %#v\n gob    %#v", env.Tag, viaBin, viaGob)
		}
	}
}

// TestBinaryFramesAreBinary asserts SetBinary(true) is actually honoured:
// bulk payloads and the balancing conversation (status, instruction)
// produce frames with the codec bit set, a heartbeat on the same
// connection stays gob.
func TestBinaryFramesAreBinary(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetBinary(true)
	for _, tc := range []struct {
		env    Envelope
		binary bool
	}{
		{Envelope{Tag: "reduce:r", From: 1, Payload: []float64{1, 2}}, true},
		{Envelope{Tag: "status", From: 1, Payload: dlb.StatusMsg{Phase: 3, Units: 96}}, true},
		{Envelope{Tag: "instr", From: -1, Payload: dlb.InstrMsg{Phase: 3, SkipHooks: 2}}, true},
		{Envelope{Tag: "hb", From: 1, Payload: dlb.HeartbeatMsg{Epoch: 1}}, false},
	} {
		buf.Reset()
		if err := c.Send(tc.env); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[0]&0x80 != 0; got != tc.binary {
			t.Errorf("%s: binary frame = %v, want %v", tc.env.Tag, got, tc.binary)
		}
	}
}

// TestMixedCodecStream interleaves gob and binary frames on one connection
// in both orders — the receiver must demultiplex per frame.
func TestMixedCodecStream(t *testing.T) {
	var buf bytes.Buffer
	send := NewConn(&buf)
	send.SetBinary(true)
	msgs := []Envelope{
		{Tag: "status", From: 0, Payload: dlb.StatusMsg{Phase: 1, Units: 10}},
		{Tag: "work", From: 0, Payload: dlb.WorkMsg{Units: []int{1}, Data: map[string][][]float64{"b": {{1, 2}}}}},
		{Tag: "hb", From: 0, Payload: dlb.HeartbeatMsg{Epoch: 1, Phase: 2}},
		{Tag: "reduce:r", From: 0, Payload: []float64{3, 4}},
		{Tag: "instr", From: -1, Payload: dlb.InstrMsg{Phase: 1, SkipHooks: 2}},
	}
	for _, m := range msgs {
		if err := send.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Tag, err)
		}
	}
	recv := NewConn(&buf) // fresh gob state: sender's stream is self-contained
	for _, want := range msgs {
		got, err := recv.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Tag, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mixed stream mismatch:\n got  %#v\n want %#v", got, want)
		}
	}
}

// TestGobPeerRejectsNothing asserts a connection left at SetBinary(false)
// never emits binary frames — the all-gob baseline stays all gob.
func TestGobPeerRejectsNothing(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, env := range bulkMessages() {
		if err := c.Send(env); err != nil {
			t.Fatalf("send %s: %v", env.Tag, err)
		}
	}
	raw := buf.Bytes()
	for off := 0; off < len(raw); {
		if raw[off]&0x80 != 0 {
			t.Fatalf("binary frame at offset %d on a gob-only connection", off)
		}
		n := int(uint32(raw[off])<<24|uint32(raw[off+1])<<16|uint32(raw[off+2])<<8|uint32(raw[off+3])) &^ (1 << 31)
		off += 4 + n
	}
}

// TestBinaryDeterministic asserts identical messages encode to identical
// bytes (map iteration order must not leak into the wire format).
func TestBinaryDeterministic(t *testing.T) {
	for _, env := range bulkMessages() {
		a, err := appendBinaryEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			b, err := appendBinaryEnvelope(nil, env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: non-deterministic encoding", env.Tag)
			}
		}
	}
}

// TestBinaryDecodeCorrupt flips and truncates encoded frames; every
// mutation must fail cleanly or decode to something — never panic.
func TestBinaryDecodeCorrupt(t *testing.T) {
	for _, env := range bulkMessages() {
		b, err := appendBinaryEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut += 1 + len(b)/37 {
			if _, err := decodeBinaryEnvelope(b[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded cleanly", env.Tag, cut)
			}
		}
		for i := 0; i < len(b); i += 1 + len(b)/53 {
			mut := append([]byte(nil), b...)
			mut[i] ^= 0xff
			decodeBinaryEnvelope(mut) // must not panic; errors are fine
		}
	}
}

// TestStatusFrameLimit pins the frame-limit error path for a status report
// on both codecs: a StatusMsg whose cost blocks exceed the connection's max
// frame fails with a typed *FrameLimitError, not corruption.
func TestStatusFrameLimit(t *testing.T) {
	big := dlb.StatusMsg{Phase: 1, CostBlocks: make([]dlb.CostBlock, 512)}
	for _, bin := range []bool{false, true} {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetBinary(bin)
		c.SetMaxFrame(256)
		err := c.Send(Envelope{Tag: "status", From: 0, Payload: big})
		var fe *FrameLimitError
		if !errors.As(err, &fe) {
			t.Fatalf("binary=%v: oversized status frame: got %v, want *FrameLimitError", bin, err)
		}
		if fe.Limit != 256 || fe.Size <= 256 {
			t.Errorf("binary=%v: error reports size %d limit %d", bin, fe.Size, fe.Limit)
		}
	}
}

// FuzzBinaryDecode feeds arbitrary bytes to the binary envelope decoder
// (mirroring FuzzDecode for the gob path). It must terminate with a clean
// error or a decoded envelope on every input — never panic or hang.
func FuzzBinaryDecode(f *testing.F) {
	for _, env := range bulkMessages() {
		b, err := appendBinaryEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{binaryVersion, binWork})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBinaryEnvelope(data)
	})
}

// FuzzFrameDecode drives the full dual-codec Recv loop with arbitrary
// bytes, covering the codec-bit demultiplexer.
func FuzzFrameDecode(f *testing.F) {
	valid := func(e Envelope, binary bool) []byte {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetBinary(binary)
		if err := c.Send(e); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(Envelope{Tag: "work", From: 1, Payload: dlb.WorkMsg{Units: []int{1}}}, true))
	f.Add(valid(Envelope{Tag: "status", From: 1, Payload: dlb.StatusMsg{Units: 5}}, false))
	f.Add(valid(Envelope{Tag: "status", From: 1, Payload: dlb.StatusMsg{Units: 5,
		CostBlocks: []dlb.CostBlock{{Lo: 3, Hi: 9, PerUnit: 4e-6}}}}, true))
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x01, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(bytes.NewBuffer(data))
		c.SetMaxFrame(1 << 20)
		for i := 0; i < 16; i++ {
			if _, err := c.Recv(); err != nil {
				var fe *FrameLimitError
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &fe) {
					return
				}
				return // any clean error is acceptable
			}
		}
	})
}
