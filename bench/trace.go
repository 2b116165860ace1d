package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// harness's side of the call. Spans of one simulation share its
// "simulation:<id>" ancestor; the workload and pass are its ancestors in
// turn.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, when the run
// ends. A nil tracer records nothing, so the untraced run pays one nil
// check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.origin).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// profileHz is the CPU profile's requested sampling rate. At the default
// 100 Hz the tracedSeconds of profiling would give half the
// minProfileSamples the shares need. A host delivers what its timers
// can (the 2-vCPU sandbox about 250 Hz); the shares do not depend on the
// rate, and the sample count is reported beside them.
const (
	profileHz         = 1000
	minProfileSamples = 1000
)

// startProfile starts a CPU profile into path and returns the function
// that stops it.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// pprof.StartCPUProfile always asks for 100 Hz; a rate set beforehand
	// wins, and the runtime's one-line complaint on standard error about
	// the second call is the documented price of choosing a rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // reporting the start failure; nothing was written
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuBuckets are the per-layer CPU-share metrics in reporting order: the
// simulator's packages, then the Go runtime as the substrate split into
// the goroutine handoff (the front-end handshake), the collector and the
// rest, then everything else (the harness, hist, monitor, ...).
var cpuBuckets = []string{
	"core", "proc", "cache", "bus", "memory", "netcache", "ring", "sim", "msg", "topo",
	"workloads", "serve", "fault", "experiments",
	"runtime.handoff", "runtime.gc", "runtime.other", "other",
}

// handoffLeaves and gcLeaves classify runtime leaf functions by
// substring. Handoff is what a goroutine switch costs — the front-end
// handshake between the machine's goroutine and a CPU's runner: channel
// operations, parking and readying, the scheduler loop and its queues,
// and the locks and futex sleeps under them. GC is allocation and
// collection. A runtime leaf matching neither (map access, memmove,
// nanotime) is work done on the simulator's behalf: runtime.other.
var (
	handoffLeaves = []string{
		"chan", "park", "ready", "schedule", "futex", "findRunnable", "runq", "stealWork",
		"execute", "osched", "mcall", "gogo", "wakep", "startm", "stopm", "dropg", "casgstatus",
		"notesleep", "notewakeup", "notetsleep", "osyield", "usleep", "procyield",
		"udog", "waitq", "pidleget", "pidleput", "resetspinning", "lock2", "sync.(*Cond)", "notifyList",
	}
	gcLeaves = []string{
		"malloc", "gc", "GC", "scan", "mark", "sweep", "mspan", "mcache", "mcentral", "mheap",
		"heapBits", "greyobject", "wbBuf", "memclr", "bulkBarrier", "typePointers", "findObject",
		"nextFree", "pageAlloc", "newobject", "newarray", "growslice", "makeslice",
	}
)

// bucketOf maps a profile leaf function to its CPU bucket.
func bucketOf(fn string) string {
	const internal = "numachine/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return pkg
			}
		}
		return "other"
	}
	if isRuntime(fn) {
		// Handoff first: locks and futexes sit under both, and in this
		// program it is the scheduler that blocks on them.
		for _, s := range handoffLeaves {
			if strings.Contains(fn, s) {
				return "runtime.handoff"
			}
		}
		for _, s := range gcLeaves {
			if strings.Contains(fn, s) {
				return "runtime.gc"
			}
		}
		return "runtime.other"
	}
	return "other"
}

func isRuntime(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "sync.", "sync/", "internal/sync", "internal/abi.", "internal/cpu.", "internal/bytealg.", "internal/chacha8rand."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuShares is one workload's profile bucketed by leaf-function package.
type cpuShares struct {
	Samples int                // profile samples behind the shares
	Share   map[string]float64 // bucket -> percent of samples, sums to 100
}

// parseTop buckets the text of `go tool pprof -top`: after a header that
// ends with the "flat  flat%" column line, each row is
// "flat flat% sum% cum cum% name". Only flat (self) time is used, so
// every sample lands in exactly one bucket.
func parseTop(text string, hz int) (cpuShares, error) {
	out := cpuShares{Share: map[string]float64{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inRows := false
	var total float64
	flat := map[string]float64{}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		secs, err := parseDuration(f[0])
		if err != nil {
			return out, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		name := strings.Join(f[5:], " ")
		flat[bucketOf(name)] += secs
		total += secs
	}
	if !inRows {
		return out, fmt.Errorf("pprof -top output has no column header")
	}
	out.Samples = int(total*float64(hz) + 0.5)
	for _, b := range cpuBuckets {
		if total > 0 {
			out.Share[b] = 100 * flat[b] / total
		} else {
			out.Share[b] = 0
		}
	}
	return out, nil
}

// parseDuration reads pprof's flat column: "1.23s", "450ms", "12us",
// "1.5min", "2hrs" or a bare "0".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		secs   float64
	}{{"hrs", 3600}, {"min", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.secs, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// profileShares runs `go tool pprof -top` on a profile the harness just
// wrote and buckets it. The profile carries its own symbols, so no
// binary is needed.
func profileShares(path string) (cpuShares, error) {
	outb, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", path).Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	return parseTop(string(outb), profileHz)
}
