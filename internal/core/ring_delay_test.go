package core

import (
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// TestIRIDelayMeasures pins what Figure 18b's IRI delays count on an idle
// machine. A station's ring interface stamps a packet when it packetizes
// it, and the IRI keeps that stamp when it switches the packet up but
// restamps every copy it sends down. So the one UpDelay sample of a single
// remote read (station 0 to station 3 across the central ring) is RI 0's
// send delay (RIPackCycles plus the wait for a free slot), two local-ring
// hops and the IRI's own switch latency, while every DownDelay sample is
// the IRI's switch latency alone.
func TestIRIDelayMeasures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 2}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := m.AllocAt(3, 64)
	m.Load([]proc.Program{func(c *proc.Ctx) { c.Read(line) }})
	m.Run()

	p := cfg.Params
	send := &m.RIs[0].SendDelay
	if send.Count() != 1 || send.Max() != 7 {
		t.Fatalf("RI 0 send delay: %d samples, max %d; want 1 sample of 7", send.Count(), send.Max())
	}
	up := &m.IRIs[0].UpDelay
	want := send.Max() + 2*int64(p.RingHopCycles) + int64(p.IRICycles) // 7 + 6 + 6
	if up.Count() != 1 || up.Max() != want {
		t.Errorf("IRI 0 up delay: %d samples, max %d; want 1 sample of %d", up.Count(), up.Max(), want)
	}
	var downs int64
	for r, iri := range m.IRIs {
		d := &iri.DownDelay
		downs += d.Count()
		if d.Count() > 0 && (d.Max() != int64(p.IRICycles) || d.Mean() != float64(p.IRICycles)) {
			t.Errorf("IRI %d down delay: mean %.2f, max %d over %d samples; want every sample %d",
				r, d.Mean(), d.Max(), d.Count(), p.IRICycles)
		}
	}
	if downs == 0 {
		t.Error("no IRI recorded a down delay")
	}
}
