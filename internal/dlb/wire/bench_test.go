package wire

import (
	"bytes"
	"testing"

	"repro/internal/dlb"
	"repro/internal/fault"
)

// benchWorkMsg is a representative work movement: 16 units of two
// 2000-element arrays plus adjacent ghosts (the payload shape every
// redistribution ships).
func benchWorkMsg() Envelope {
	w := dlb.WorkMsg{Ghosts: map[string]map[int][]float64{}}
	w.Data = map[string][][]float64{}
	for _, arr := range []string{"b", "c"} {
		var slices [][]float64
		for u := 0; u < 16; u++ {
			col := make([]float64, 2000)
			for i := range col {
				col[i] = float64(u*2000 + i)
			}
			slices = append(slices, col)
		}
		w.Data[arr] = slices
		w.Ghosts[arr] = map[int][]float64{16: make([]float64, 2000)}
	}
	for u := 0; u < 16; u++ {
		w.Units = append(w.Units, u)
	}
	return Envelope{Tag: "work", From: 1, Payload: w}
}

// benchCheckpointMsg is a representative checkpoint part: 32 owned units
// of one array plus the designated slave's shared state.
func benchCheckpointMsg() Envelope {
	owned := map[int][]float64{}
	for u := 0; u < 32; u++ {
		col := make([]float64, 1000)
		for i := range col {
			col[i] = float64(u + i)
		}
		owned[u] = col
	}
	return Envelope{Tag: "ckpt", From: 2, Payload: dlb.CheckpointMsg{
		Cut: fault.Cut{
			Seq: 3, Hook: 40, Phase: 8, NextContact: 44, Slaves: 4,
			Owner:      make([]int, 64),
			Active:     make([]bool, 64),
			Replicated: map[string][]float64{"p": make([]float64, 512)},
			RedSnap:    map[string][]float64{"res": {0.25}},
		},
		Epoch: 1, Slave: 2, Meta: true,
		Owned: map[string]map[int][]float64{"b": owned},
		Red:   map[string][]float64{"res": {0.5}},
	}}
}

func envelopeBytes(e Envelope, binary bool) int64 {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetBinary(binary)
	if err := c.Send(e); err != nil {
		panic(err)
	}
	return int64(buf.Len())
}

// benchCodec measures one full encode+decode round trip per iteration.
// Conns are reused across iterations — exactly the steady state of a live
// connection, where gob's type dictionary and the pooled buffers are warm.
func benchCodec(b *testing.B, env Envelope, binary bool) {
	var buf bytes.Buffer
	send := NewConn(&buf)
	send.SetBinary(binary)
	recv := NewConn(&buf)
	b.SetBytes(envelopeBytes(env, binary))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send(env); err != nil {
			b.Fatal(err)
		}
		if _, err := recv.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec compares the two codecs on the bulk data-plane
// messages (encode + frame + decode; bytes/op is the wire size).
func BenchmarkWireCodec(b *testing.B) {
	b.Run("work/gob", func(b *testing.B) { benchCodec(b, benchWorkMsg(), false) })
	b.Run("work/binary", func(b *testing.B) { benchCodec(b, benchWorkMsg(), true) })
	b.Run("ckpt/gob", func(b *testing.B) { benchCodec(b, benchCheckpointMsg(), false) })
	b.Run("ckpt/binary", func(b *testing.B) { benchCodec(b, benchCheckpointMsg(), true) })
}

// BenchmarkMoveCost measures the sender-side cost of one work movement —
// the quantity the balancer's MoveCostModel tracks and the adaptive
// period divides by ten — for each codec (encode + frame only; the wire
// write lands in a reused buffer).
func BenchmarkMoveCost(b *testing.B) {
	for _, c := range []struct {
		name   string
		binary bool
	}{{"gob", false}, {"binary", true}} {
		b.Run(c.name, func(b *testing.B) {
			env := benchWorkMsg()
			var buf bytes.Buffer
			conn := NewConn(&buf)
			conn.SetBinary(c.binary)
			b.SetBytes(envelopeBytes(env, c.binary))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := conn.Send(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
