package svc

// pool is the shared slave pool: a fixed roster of daemon addresses, each
// leased to at most one job at a time. Leases are exclusive by
// construction — a slot is either on the free list or inside exactly one
// job's lease — which is the service's isolation guarantee: two jobs never
// drive the same daemon, so their sessions, routers and epochs cannot
// interleave. The owning Service's mutex guards all calls.
type pool struct {
	addrs []string
	free  []int // free slot indices, ascending
}

func newPool(addrs []string) *pool {
	p := &pool{addrs: addrs}
	for i := range addrs {
		p.free = append(p.free, i)
	}
	return p
}

func (p *pool) size() int    { return len(p.addrs) }
func (p *pool) freeLen() int { return len(p.free) }

// lease takes n free slots; the caller must have checked freeLen() >= n.
func (p *pool) lease(n int) []int {
	if n > len(p.free) {
		panic("svc: pool lease over capacity")
	}
	slots := append([]int(nil), p.free[:n]...)
	p.free = p.free[n:]
	return slots
}

// release returns a lease's slots to the free list, keeping it sorted so
// leases stay deterministic.
func (p *pool) release(slots []int) {
	p.free = append(p.free, slots...)
	for i := 1; i < len(p.free); i++ {
		for j := i; j > 0 && p.free[j] < p.free[j-1]; j-- {
			p.free[j], p.free[j-1] = p.free[j-1], p.free[j]
		}
	}
}

// leaseAddrs maps slot indices to daemon addresses.
func (p *pool) leaseAddrs(slots []int) []string {
	addrs := make([]string, len(slots))
	for i, s := range slots {
		addrs[i] = p.addrs[s]
	}
	return addrs
}
