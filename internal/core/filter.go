package core

// RateFilter smooths a slave's measured computation rate. Following the
// paper: "new rate information for each slave is filtered by averaging it
// with older rate information, with relative weights set according to
// trends observed in the rates." A consistent trend (several samples moving
// the same direction) shifts weight toward the new samples so genuine load
// changes are tracked quickly; direction reversals reset the weight so
// short spikes and quantum-scale oscillation are damped.
type RateFilter struct {
	minWeight float64
	maxWeight float64
	weight    float64
	value     float64
	lastDir   int
	primed    bool
}

// NewRateFilter creates a filter with the given weight range for new
// samples. Typical values: min 0.25 (heavy smoothing), max 1.0 (track
// immediately once a trend is confirmed).
func NewRateFilter(minWeight, maxWeight float64) *RateFilter {
	if minWeight <= 0 || minWeight > 1 || maxWeight < minWeight || maxWeight > 1 {
		panic("core: rate filter weights must satisfy 0 < min <= max <= 1")
	}
	return &RateFilter{minWeight: minWeight, maxWeight: maxWeight, weight: minWeight}
}

// Update feeds one raw rate sample and returns the filtered rate.
func (f *RateFilter) Update(sample float64) float64 {
	if !f.primed {
		f.value = sample
		f.primed = true
		return f.value
	}
	dir := 0
	switch {
	case sample > f.value:
		dir = 1
	case sample < f.value:
		dir = -1
	}
	if dir != 0 && dir == f.lastDir {
		// Confirmed trend: double the weight (up to max) so the filter
		// converges on the new level quickly.
		f.weight *= 2
		if f.weight > f.maxWeight {
			f.weight = f.maxWeight
		}
	} else {
		f.weight = f.minWeight
	}
	f.lastDir = dir
	f.value += f.weight * (sample - f.value)
	return f.value
}

// Value returns the current filtered rate (0 before the first sample).
func (f *RateFilter) Value() float64 { return f.value }
