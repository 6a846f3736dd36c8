package wire

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/dlb"
)

// CodecBandwidth estimates the data-plane bandwidth (bytes/sec) of the
// binary bulk codec by timing encode+decode round trips of a
// representative work-movement payload in memory. On loopback TCP the
// codec dominates movement cost, so this is the right seed for the
// balancer's move-cost prior (the EMA then tracks real measured
// movements). Measured once per process and cached.
func CodecBandwidth() float64 {
	bwOnce.Do(func() {
		var buf bytes.Buffer
		send := NewConn(&buf)
		send.SetBinary(true)
		bwCache = roundTripBandwidth(send, NewConn(&buf), &buf)
	})
	return bwCache
}

var (
	bwOnce  sync.Once
	bwCache float64
)

// roundTripBandwidth times send→recv round trips of a ~1 MB work message
// (8 units of two 8192-element arrays) through buf, the stream both
// connections wrap.
func roundTripBandwidth(send, recv *Conn, buf *bytes.Buffer) float64 {
	w := dlb.WorkMsg{Data: map[string][][]float64{}}
	for _, arr := range []string{"x", "y"} {
		var slices [][]float64
		for u := 0; u < 8; u++ {
			col := make([]float64, 8192)
			for i := range col {
				col[i] = float64(u*8192 + i)
			}
			slices = append(slices, col)
		}
		w.Data[arr] = slices
	}
	for u := 0; u < 8; u++ {
		w.Units = append(w.Units, u)
	}
	env := Envelope{Tag: "bw", From: 0, Payload: w}

	// Warm up codec state (gob's type dictionary, pooled buffers) and
	// learn the wire size.
	if err := send.Send(env); err != nil {
		return 1e9 // codec broken; fall back to the old constant prior
	}
	size := buf.Len()
	if _, err := recv.Recv(); err != nil {
		return 1e9
	}

	const rounds = 8
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := send.Send(env); err != nil {
			return 1e9
		}
		if _, err := recv.Recv(); err != nil {
			return 1e9
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 1e9
	}
	return float64(size) * rounds / elapsed.Seconds()
}
