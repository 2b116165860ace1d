package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTopBucketsByLeafPackage(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseTop(string(text), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 2000 {
		t.Errorf("samples = %d, want 2000 (2s of flat time at 1000 Hz)", got.Samples)
	}
	want := map[string]float64{
		"core": 28, "ring": 14, "bus": 5, "proc": 5, "netcache": 5, "cache": 4, "memory": 3,
		"sim": 5, "msg": 2, "workloads": 2, "serve": 1, "topo": 0.5, "fault": 0.5, "experiments": 0,
		// chanrecv, casgstatus, schedule, futex, gopark, waitq.dequeue
		"runtime.handoff": 10,
		// mallocgc, scanblock, mspan.init, gcDrain
		"runtime.gc": 4,
		// map access, memmove, the runtime's random source
		"runtime.other": 8,
		// hist (no bucket of its own), math, the harness, encoding/json
		"other": 3,
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += got.Share[b]
		if math.Abs(got.Share[b]-want[b]) > 1e-9 {
			t.Errorf("%s share = %v%%, want %v%%", b, got.Share[b], want[b])
		}
	}
	if len(got.Share) != len(cpuBuckets) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("%d shares sum to %v%%, want %d summing to 100%%", len(got.Share), sum, len(cpuBuckets))
	}
}

func TestParseTopRejectsOtherText(t *testing.T) {
	if _, err := parseTop("no such file\n", 1000); err == nil {
		t.Error("text without the flat/flat% header was accepted")
	}
}

func TestBucketOfRuntimeSplit(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chansend":                          "runtime.handoff",
		"runtime.goready":                           "runtime.handoff",
		"runtime.findRunnable":                      "runtime.handoff",
		"runtime.futexwakeup":                       "runtime.handoff",
		"runtime.lock2":                             "runtime.handoff",
		"sync.(*Cond).Wait":                         "runtime.handoff",
		"runtime.gcBgMarkWorker":                    "runtime.gc",
		"runtime.(*mheap).alloc":                    "runtime.gc",
		"runtime.sweepone":                          "runtime.gc",
		"runtime.memclrNoHeapPointers":              "runtime.gc",
		"runtime.growslice":                         "runtime.gc",
		"runtime.nanotime (inline)":                 "runtime.other",
		"internal/runtime/atomic.(*Int32).Add":      "runtime.other",
		"numachine/internal/monitor.(*Counter).Inc": "other",
		"numachine.New":                             "other",
		"time.Now":                                  "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "255ms": 0.255, "1.25s": 1.25, "12us": 12e-6, "2min": 120, "1.5hrs": 5400} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("fast"); err == nil {
		t.Error(`parseDuration("fast") succeeded`)
	}
}
