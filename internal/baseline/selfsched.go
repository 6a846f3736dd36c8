package baseline

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/loopir"
	"repro/internal/vtime"
)

// ChunkPolicy decides how many units an idle slave receives per request.
type ChunkPolicy interface {
	Next(remaining, slaves int) int
	Name() string
}

// FixedChunk hands out a constant number of units (pure self-scheduling
// with k=1, chunk scheduling otherwise).
type FixedChunk int

// Next implements ChunkPolicy.
func (f FixedChunk) Next(remaining, slaves int) int {
	n := int(f)
	if n < 1 {
		n = 1
	}
	if n > remaining {
		n = remaining
	}
	return n
}

// Name implements ChunkPolicy.
func (f FixedChunk) Name() string { return fmt.Sprintf("fixed-%d", int(f)) }

// GSS is guided self-scheduling (Polychronopoulos & Kuck): each request
// gets ceil(remaining / slaves) units, so chunks shrink geometrically.
type GSS struct{}

// Next implements ChunkPolicy.
func (GSS) Next(remaining, slaves int) int {
	n := (remaining + slaves - 1) / slaves
	if n < 1 {
		n = 1
	}
	return n
}

// Name implements ChunkPolicy.
func (GSS) Name() string { return "gss" }

// self-scheduling message payloads.
type ssChunk struct {
	Units []int
	BCols [][]float64
	CCols [][]float64 // current values (zeros here, but shipped for generality)
	Stop  bool
}

type ssResult struct {
	Units []int
	CCols [][]float64
}

// RunSelfSched executes the workload with a central task queue. Slaves
// request work when idle; every chunk's input columns travel from the
// master to the slave and the output columns travel back.
func RunSelfSched(m *MM, cc cluster.Config, policy ChunkPolicy, flopCost time.Duration) (*Result, error) {
	if flopCost <= 0 {
		flopCost = time.Microsecond
	}
	n := m.N
	res := &Result{C: loopir.NewArray("c", []int{n, n})}
	a := m.Inst.Arrays["a"]
	b := m.Inst.Arrays["b"]

	elapsed, usage, err := runKernel(cc, func(k *vtime.Kernel, c *cluster.Cluster) {
		slaves := cc.Slaves
		// Master: replicate A at startup, then serve the queue.
		c.Spawn("master", cluster.MasterID, func(p *vtime.Proc, node *cluster.Node) {
			for s := 0; s < slaves; s++ {
				node.Send(p, s, "matrixA", msgHeaderBytes+8*len(a.Data), append([]float64(nil), a.Data...))
			}
			next := 0
			completed := 0
			stopped := 0
			for completed < n || stopped < slaves {
				msg := node.RecvTag(p, cluster.AnySource, "")
				switch msg.Tag {
				case "req":
					remaining := n - next
					if remaining == 0 {
						node.Send(p, msg.From, "chunk", msgHeaderBytes, ssChunk{Stop: true})
						stopped++
						continue
					}
					take := policy.Next(remaining, slaves)
					units := make([]int, take)
					bcols := make([][]float64, take)
					ccols := make([][]float64, take)
					bytes := msgHeaderBytes
					for i := 0; i < take; i++ {
						u := next + i
						units[i] = u
						bcols[i] = column(n, b.Data, u)
						ccols[i] = make([]float64, n)
						bytes += 16 * n
					}
					next += take
					res.Assigns++
					res.UnitsMoved += take
					node.Send(p, msg.From, "chunk", bytes, ssChunk{Units: units, BCols: bcols, CCols: ccols})
				case "result":
					r := msg.Data.(ssResult)
					for i, u := range r.Units {
						for row := 0; row < n; row++ {
							res.C.Data[row*n+u] = r.CCols[i][row]
						}
					}
					completed += len(r.Units)
				}
			}
		})
		for s := 0; s < slaves; s++ {
			c.Spawn(fmt.Sprintf("slave%d", s), s, func(p *vtime.Proc, node *cluster.Node) {
				amsg := node.RecvTag(p, cluster.MasterID, "matrixA")
				local := amsg.Data.([]float64)
				for {
					node.Send(p, cluster.MasterID, "req", msgHeaderBytes, nil)
					chunk := node.RecvTag(p, cluster.MasterID, "chunk").Data.(ssChunk)
					if chunk.Stop {
						return
					}
					node.Compute(p, time.Duration(float64(len(chunk.Units))*m.UnitFlops()*float64(flopCost)))
					out := make([][]float64, len(chunk.Units))
					bytes := msgHeaderBytes
					for i := range chunk.Units {
						out[i] = make([]float64, n)
						computeColumn(n, local, chunk.BCols[i], out[i])
						bytes += 8 * n
					}
					node.Send(p, cluster.MasterID, "result", bytes, ssResult{Units: chunk.Units, CCols: out})
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = elapsed
	res.Usage = usage
	return res, nil
}

const msgHeaderBytes = 32
