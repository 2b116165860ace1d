package core

// NewLoop re-exports newLoop, the one place that installs the reference
// order, and EquivLoops the loop names it takes, for the package core_test
// suites.
var (
	NewLoop    = newLoop
	EquivLoops = equivLoops
)

// shippedPoolMinDue is poolMinDue as the program ships it. Every suite of
// this package runs at poolMinDue 1, so the pooled executor sends phase 1
// to the pool on each cycle with station work, as it did before the
// cutoff existed; the tests of the cutoff itself restore the shipped value.
var shippedPoolMinDue = poolMinDue

func init() { poolMinDue = 1 }

// CountDueStations makes m tally, for every cycle Run steps, how many
// stations are due at its top: hist[n] is the number of cycles with n due
// stations. The tally is taken through the oracle seam, whose hook then
// runs the production step (fast-forward included), so the run is the one
// the program makes.
func CountDueStations(m *Machine) (hist []int64) {
	hist = make([]int64, len(m.stationNext)+1)
	var hook func()
	hook = func() {
		n := 0
		for _, at := range m.stationNext {
			if at <= m.now {
				n++
			}
		}
		hist[n]++
		m.oracle = nil
		m.Step()
		m.oracle = hook
	}
	m.oracle = hook
	return hist
}
