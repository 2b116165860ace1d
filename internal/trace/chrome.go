package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// chromeEvent is one record of the Chrome trace-event format (the JSON
// dialect Perfetto's legacy importer reads). Field order and the sorted
// map keys of encoding/json make the output byte-deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeFile writes the trace (WriteChrome) to path, the one writer
// of trace files: through a temp file in path's directory and an atomic
// rename, so writers racing on one path leave the last complete file,
// never a torn one.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed
	err = t.WriteChrome(f)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide the file from viewers
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// WriteChrome exports the merged trace as Chrome trace-event JSON:
// one process per station (plus one for the interconnect), one thread
// track per component, B/E spans for processor transactions and bus
// transfers, 1-cycle X slices for directory transactions and flit
// endpoints, counters for queue depth and ring occupancy, and s/t/f flow
// events linking a request's hops across tracks via its line address.
func (t *Tracer) WriteChrome(w io.Writer) error {
	toUS := func(c int64) float64 {
		if t.CyclesToNS != nil {
			return t.CyclesToNS(c) / 1e3
		}
		return float64(c)
	}
	cycleUS := toUS(1) - toUS(0)

	var evs []chromeEvent
	// Metadata: process names (stations / interconnect) and thread names
	// (components). pid/tid are 1-based; Perfetto treats 0 as idle.
	seenPid := map[int]bool{}
	for rank, m := range t.metas {
		pid := m.Station + 1
		if !seenPid[pid] {
			seenPid[pid] = true
			pname := fmt.Sprintf("station %d", m.Station)
			if m.Class == ClassRing || m.Class == ClassIRI {
				pname = "interconnect"
			}
			evs = append(evs, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": pname},
			})
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: rank + 1,
			Args: map[string]any{"name": m.Name},
		})
	}

	for _, e := range t.Events() {
		m := t.metas[e.Comp]
		pid, tid := m.Station+1, int(e.Comp)+1
		ts := toUS(e.Cycle)
		flowID := fmt.Sprintf("%#x", e.Line)
		flow := func(ph, bp string) chromeEvent {
			return chromeEvent{Name: "txn", Cat: "txn", Ph: ph, Ts: ts,
				Pid: pid, Tid: tid, ID: flowID, BP: bp}
		}
		switch e.Kind {
		case KindTxnBegin:
			evs = append(evs, chromeEvent{
				Name: TypeName(e.A), Cat: "txn", Ph: "B", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "phase": e.B >> 1, "retry": e.B&1 != 0},
			})
			evs = append(evs, flow("s", ""))
		case KindTxnEnd:
			evs = append(evs, chromeEvent{
				Name: TypeName(e.A), Cat: "txn", Ph: "E", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID},
			})
			evs = append(evs, flow("f", "e"))
		case KindNAK:
			// Close the open transaction span; the retry opens a new one.
			evs = append(evs, chromeEvent{
				Name: "NAK", Cat: "txn", Ph: "E", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "nakOf": TypeName(e.A), "retryDelay": e.B},
			})
		case KindBarrierArrive:
			evs = append(evs, chromeEvent{
				Name: "barrier", Cat: "sync", Ph: "B", Ts: ts, Pid: pid, Tid: tid,
			})
		case KindBarrierRelease:
			evs = append(evs, chromeEvent{
				Name: "barrier", Cat: "sync", Ph: "E", Ts: ts, Pid: pid, Tid: tid,
			})
		case KindBusGrant:
			evs = append(evs, chromeEvent{
				Name: TypeName(e.A), Cat: "bus", Ph: "B", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "cycles": e.B},
			})
			evs = append(evs, flow("t", ""))
		case KindBusDeliver:
			evs = append(evs, chromeEvent{
				Name: TypeName(e.A), Cat: "bus", Ph: "E", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "dstMod": e.B},
			})
		case KindMemTxn, KindNCTxn:
			state := "NotIn"
			if e.B >= 0 {
				state = [...]string{"LV", "LI", "GV", "GI", "LV*", "LI*", "GV*", "GI*"}[e.B&7]
			}
			evs = append(evs, chromeEvent{
				Name: TypeName(e.A), Cat: "dir", Ph: "X", Ts: ts, Dur: cycleUS,
				Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "state": state, "txn": e.Txn},
			})
			evs = append(evs, flow("t", ""))
		case KindFlitEnqueue:
			evs = append(evs, chromeEvent{
				Name: "pack " + TypeName(e.A), Cat: "flit", Ph: "X", Ts: ts, Dur: cycleUS,
				Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "packets": e.B},
			})
			evs = append(evs, flow("t", ""))
		case KindFlitDeliver:
			evs = append(evs, chromeEvent{
				Name: "deliver " + TypeName(e.A), Cat: "flit", Ph: "X", Ts: ts, Dur: cycleUS,
				Pid: pid, Tid: tid,
				Args: map[string]any{"line": flowID, "delay": e.B},
			})
			evs = append(evs, flow("t", ""))
		case KindFlitInject, KindFlitArrive, KindFlitSwitch, KindWriteBack,
			KindInval, KindInterv, KindPhase, KindRingStall:
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: "flit", Ph: "i", Ts: ts, Pid: pid, Tid: tid,
				Scope: "t",
				Args:  map[string]any{"line": flowID, "a": e.A, "b": e.B},
			})
		case KindFaultDrop, KindFaultDup, KindFaultStall:
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: "fault", Ph: "i", Ts: ts, Pid: pid, Tid: tid,
				Scope: "t",
				Args:  map[string]any{"line": flowID, "a": e.A, "b": e.B},
			})
		case KindQueueDepth:
			evs = append(evs, chromeEvent{
				Name: m.Name + " depth", Ph: "C", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"depth": e.A},
			})
		case KindRingOccupancy:
			evs = append(evs, chromeEvent{
				Name: m.Name + " occupancy", Ph: "C", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"slots": e.A},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs})
}

// validPhases are the trace-event phases the exporter may produce.
var validPhases = map[string]bool{
	"B": true, "E": true, "X": true, "i": true, "C": true,
	"s": true, "t": true, "f": true, "M": true,
}

// ValidateChrome checks that r holds well-formed Chrome trace-event JSON
// of the shape WriteChrome produces: a traceEvents array whose records
// all carry a name, a known phase, pid/tid, a timestamp on non-metadata
// events, and a duration on complete (X) events. It returns the event
// count. CI runs it (via cmd/tracelint) on freshly produced traces to
// catch schema drift against the golden-file test.
func ValidateChrome(r io.Reader) (int, error) {
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(raw.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace: traceEvents is missing or empty")
	}
	for i, ev := range raw.TraceEvents {
		var name, ph string
		if err := unmarshalField(ev, "name", &name); err != nil || name == "" {
			return 0, fmt.Errorf("trace: event %d: missing name", i)
		}
		if err := unmarshalField(ev, "ph", &ph); err != nil || !validPhases[ph] {
			return 0, fmt.Errorf("trace: event %d (%s): bad phase %q", i, name, ph)
		}
		var n float64
		if err := unmarshalField(ev, "pid", &n); err != nil {
			return 0, fmt.Errorf("trace: event %d (%s): missing pid", i, name)
		}
		if err := unmarshalField(ev, "tid", &n); err != nil && ph != "M" {
			return 0, fmt.Errorf("trace: event %d (%s): missing tid", i, name)
		}
		if ph != "M" {
			if err := unmarshalField(ev, "ts", &n); err != nil {
				return 0, fmt.Errorf("trace: event %d (%s): missing ts", i, name)
			}
		}
		if ph == "X" {
			if err := unmarshalField(ev, "dur", &n); err != nil {
				return 0, fmt.Errorf("trace: event %d (%s): X event without dur", i, name)
			}
		}
	}
	return len(raw.TraceEvents), nil
}

func unmarshalField(ev map[string]json.RawMessage, key string, dst any) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %s", key)
	}
	return json.Unmarshal(raw, dst)
}
