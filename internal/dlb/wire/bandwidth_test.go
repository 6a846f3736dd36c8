package wire

import (
	"bytes"
	"testing"
)

// TestCodecBandwidthOrdering pins the property the master's move-cost
// prior relies on: the measured binary data plane is faster than gob, so
// seeding cluster.Config.Bandwidth from it yields a smaller per-unit cost
// (and thus a shorter adaptive period) than a gob data plane would. The
// gob side is measured here, on a connection left at its gob default;
// production measures only the codec it ships. The value is cached, so
// repeated calls must agree.
func TestCodecBandwidthOrdering(t *testing.T) {
	var buf bytes.Buffer
	gob := roundTripBandwidth(NewConn(&buf), NewConn(&buf), &buf)
	bin := CodecBandwidth()
	if gob <= 0 || bin <= 0 {
		t.Fatalf("non-positive bandwidth: gob %g, binary %g", gob, bin)
	}
	if bin <= gob {
		t.Errorf("binary codec measured no faster than gob: %g <= %g bytes/s", bin, gob)
	}
	if again := CodecBandwidth(); again != bin {
		t.Errorf("bandwidth not cached: %g then %g", bin, again)
	}
}
