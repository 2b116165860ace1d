package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"numachine/internal/trace"
)

// TestAbortedRunKeepsItsTrace wedges the only home memory so the watchdog
// aborts the run: numasim must exit 1 with the stuck-transaction report
// and a repro line instead of a goroutine dump, and still write a trace
// that passes the tracelint check.
func TestAbortedRunKeepsItsTrace(t *testing.T) {
	dir := t.TempDir()
	bin, out := filepath.Join(dir, "numasim"), filepath.Join(dir, "t.json")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	cmd := exec.Command(bin,
		"-workload", "radix", "-procs", "4", "-size", "2048",
		"-procs-per-station", "2", "-stations-per-ring", "2", "-rings", "1",
		"-fault-spec", "wedge-mem=1:2000", "-fault-seed", "7", "-trace", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, stderr.String())
	}
	msg := stderr.String()
	for _, want := range []string{
		"numasim: core: no progress for",
		"stuck-transaction report at cycle",
		"numasim: repro: numasim -fault-seed=7 -fault-spec=wedge-mem=1:2000 ",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "goroutine ") {
		t.Errorf("stderr carries a goroutine dump:\n%s", msg)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("aborted run left no trace: %v", err)
	}
	defer f.Close()
	if n, err := trace.ValidateChrome(f); err != nil || n == 0 {
		t.Errorf("trace: %d events, err %v", n, err)
	}
}
