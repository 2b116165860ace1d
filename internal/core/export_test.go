package core

import "fmt"

// NewLoop re-exports newLoop, the one place that installs the reference
// order, for the package core_test suites.
var NewLoop = newLoop

// AuditInterconnectPolls installs, through the oracle seam, the gated cycle
// with a check right before each interconnect gate pass: a due RI,
// local-ring or central-ring entry (pollX <= now) whose component reports
// NextWork(now) > now is a poll that finds no work, and is appended to the
// returned list as "kind i at cycle now" — except on the first cycle, when
// every entry is due after resetPolls. The cycle runs the production
// phases in the production order, and under Config.CheckInvariants the
// gate audit after each step, so the run is the gated cycle's (there is no
// quiescence fast-forward: every cycle is stepped).
func AuditInterconnectPolls(m *Machine) *[]string {
	var idle []string
	first := true
	check := func(kind string, i int, cached int64, c interface{ NextWork(int64) int64 }) {
		if now := m.now; !first && cached <= now && c.NextWork(now) > now {
			idle = append(idle, fmt.Sprintf("%s %d at cycle %d", kind, i, now))
		}
	}
	m.oracle = func() {
		now := m.now
		m.fireBarriers()
		m.stationPhase(now)
		if anyDue(m.ringNext, now) {
			for s, ri := range m.RIs {
				check("ri", s, m.pollRI[s], ri)
			}
			m.tickRIs(now)
			for r, lr := range m.Locals {
				check("local ring", r, m.pollLocal[r], lr)
			}
			m.tickLocals(now)
		}
		if m.Central != nil {
			check("central ring", 0, m.pollCentral, m.Central)
		}
		m.tail(now)
		m.now++
		first = false
		m.checkGates()
	}
	return &idle
}
