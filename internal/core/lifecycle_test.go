package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"numachine/internal/proc"
)

// waitGoroutines waits for the goroutine count to fall back to base. A
// stopped program is gone when Close returns; a pool worker has signalled
// its exit by then but may still be counted for an instant.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%s: %d goroutines, %d before — abandoned programs leaked", what, n, base)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 10 ms (or after 2 s): goroutines an earlier test stopped, or the
// testing framework is winding down, may still be counted for an instant,
// and an exact comparison must not see them on one side only.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		now := runtime.NumGoroutine()
		if now == n {
			break
		}
		n = now
	}
	return n
}

// TestNoGoroutineLeak: a machine abandoned mid-program must not leave its
// workloads parked for ever — after a watchdog abort (Run closes the
// machine on its way out), when Load replaces unfinished programs, and
// when a machine driven by Step is closed.
func TestNoGoroutineLeak(t *testing.T) {
	base := settledGoroutines()

	for _, loop := range equivLoops {
		if runWatchdog(t, loop, 0) == "" {
			t.Fatalf("%s loop did not trip the watchdog", loop)
		}
		waitGoroutines(t, "watchdog abort, "+loop+" loop", base)
	}

	m, err := New(tinyConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.AllocLines(4)
	unwound := 0
	spin := func(c *proc.Ctx) {
		defer func() { unwound++ }()
		for {
			c.Read(addr + uint64(c.ID)*64)
			c.Compute(1000)
		}
	}
	m.Load([]proc.Program{spin, spin, spin, spin})
	for i := 0; i < 500; i++ {
		m.Step()
	}
	if n := settledGoroutines(); n != base+4 {
		t.Fatalf("4 parked programs, %d goroutines over the baseline", n-base)
	}
	// Two programs replace four: all four old ones unwind, and the two
	// processors left without a program go idle instead of fetching from
	// a stopped runner.
	m.Load([]proc.Program{spin, spin})
	if unwound != 4 {
		t.Errorf("Load over 4 unfinished programs unwound %d", unwound)
	}
	for i := 0; i < 500; i++ {
		m.Step()
	}
	m.Close()
	if unwound != 6 {
		t.Errorf("Close left %d of 6 programs parked", 6-unwound)
	}
	m.Close() // idempotent
	waitGoroutines(t, "Load over unfinished programs, then Close", base)
}

// TestProgramPanicReport: a panic in a Program must reach the caller of
// Run as a report naming the processor and the cycle — under every
// executor, including the pool, whose workers tick the CPUs — and leave no
// goroutine behind.
func TestProgramPanicReport(t *testing.T) {
	base := runtime.NumGoroutine()
	var want string
	for _, loop := range equivLoops {
		m, err := newLoop(tinyConfig(2, 2, 1), loop)
		if err != nil {
			t.Fatal(err)
		}
		addr := m.AllocLines(8)
		progs := make([]proc.Program, 4)
		for i := range progs {
			progs[i] = func(c *proc.Ctx) {
				for k := uint64(0); ; k++ {
					if c.ID == 2 && k == 3 {
						panic(fmt.Sprintf("workload bug after %d references", k))
					}
					c.Read(addr + (uint64(c.ID)*2+k%2)*64)
				}
			}
		}
		m.Load(progs)
		got := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			m.Run()
			return ""
		}()
		if !strings.HasPrefix(got, "proc: cpu[2] program panicked at cycle ") ||
			!strings.HasSuffix(got, ": workload bug after 3 references") {
			t.Errorf("%s loop: Run panicked with %q", loop, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s loop reports %q, reference order %q", loop, got, want)
		}
		waitGoroutines(t, "program panic, "+loop+" loop", base)
	}
}
