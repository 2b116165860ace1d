package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"numachine/internal/memory"
	"numachine/internal/netcache"
	"numachine/internal/proc"
	"numachine/internal/topo"
)

// TestNCResultsZeroDenominator pins the zero-request convention of every
// rate helper of Results.NC (netcache.Stats): a machine that issued no NC requests (e.g. a
// single-station run, or a snapshot taken before any remote access)
// must report 0 for every rate, never NaN or Inf — the experiment
// printers and the telemetry JSON encoder both feed these straight to
// the user.
func TestNCResultsZeroDenominator(t *testing.T) {
	// Non-zero numerator fields make a division-by-zero visible were a
	// guard ever dropped: 3/0 is +Inf, not the defined 0.
	n := netcache.Stats{HitsMigration: 1, HitsCaching: 1, LocalInterv: 1,
		Combined: 2, FalseRemotes: 3}
	rates := map[string]float64{
		"HitRate":         n.HitRate(),
		"MigrationRate":   n.MigrationRate(),
		"CachingRate":     n.CachingRate(),
		"CombiningRate":   n.CombiningRate(),
		"FalseRemoteRate": n.FalseRemoteRate(),
	}
	for name, v := range rates {
		if v != 0 {
			t.Errorf("%s with 0 requests = %v, want 0", name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s with 0 requests is %v", name, v)
		}
	}
}

// TestNCResultsRates checks each rate's definition on a hand-computed
// example.
func TestNCResultsRates(t *testing.T) {
	n := netcache.Stats{
		Requests:      200,
		HitsMigration: 40,
		HitsCaching:   30,
		LocalInterv:   10,
		Combined:      16,
		FalseRemotes:  2,
	}
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"HitRate", n.HitRate(), 0.40},             // (40+30+10)/200
		{"MigrationRate", n.MigrationRate(), 0.20}, // 40/200
		{"CachingRate", n.CachingRate(), 0.20},     // (30+10)/200
		{"CombiningRate", n.CombiningRate(), 0.08}, // 16/200
		{"FalseRemoteRate", n.FalseRemoteRate(), 0.01},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// The decomposition of Figure 15 must be exact: hit = migration + caching.
	if d := n.HitRate() - (n.MigrationRate() + n.CachingRate()); math.Abs(d) > 1e-12 {
		t.Errorf("hit rate decomposition off by %v", d)
	}
}

// TestResultsCarryEveryCounter pins one line per counter: every field of
// memory.Stats, netcache.Stats and proc.Stats is a plain int64 that
// reaches Results — and its JSON — summed over modules under its own name,
// with no copy list to extend. The only counters the JSON leaves out are
// the five Results never carried.
func TestResultsCarryEveryCounter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Give every field of every module a distinct value and keep the sums.
	want := map[string]map[string]int64{"Mem": {}, "NC": {}, "Proc": {}}
	next := int64(0)
	fill := func(section string, stats any) {
		v := reflect.ValueOf(stats).Elem()
		for i := range v.NumField() {
			f, name := v.Field(i), v.Type().Field(i).Name
			if f.Kind() != reflect.Int64 {
				t.Fatalf("%s.%s is %s; a stats field must be a plain int64", v.Type(), name, f.Type())
			}
			next++
			f.SetInt(next)
			want[section][name] += next
		}
	}
	for _, mem := range m.Mems {
		fill("Mem", &mem.Stats)
	}
	for _, nc := range m.NCs {
		fill("NC", &nc.Stats)
	}
	for _, c := range m.CPUs {
		fill("Proc", &c.Stats)
	}

	r := m.Results()
	sections := map[string]any{"Mem": r.Mem, "NC": r.NC, "Proc": r.Proc}
	for section, fields := range want {
		got := reflect.ValueOf(sections[section])
		data, err := json.Marshal(sections[section])
		if err != nil {
			t.Fatal(err)
		}
		var inJSON map[string]json.RawMessage
		if err := json.Unmarshal(data, &inJSON); err != nil {
			t.Fatal(err)
		}
		for name, sum := range fields {
			if v := got.FieldByName(name).Int(); v != sum {
				t.Errorf("Results.%s.%s = %d, want the module sum %d", section, name, v, sum)
			}
			raw, ok := inJSON[name]
			if hidden := hiddenCounters[section+"."+name]; ok == hidden {
				t.Errorf("Results.%s.%s in JSON = %v, want %v", section, name, ok, !hidden)
			} else if ok && string(raw) != strconv.FormatInt(sum, 10) {
				t.Errorf("Results.%s.%s JSON = %s, want %d", section, name, raw, sum)
			}
		}
	}
	if r.Fault.TimeoutReissues != want["NC"]["TimeoutReissues"] {
		t.Errorf("Fault.TimeoutReissues = %d, want the NC sum %d", r.Fault.TimeoutReissues, want["NC"]["TimeoutReissues"])
	}

	var hidden []string
	for section, typ := range map[string]reflect.Type{
		"Mem": reflect.TypeFor[memory.Stats](), "NC": reflect.TypeFor[netcache.Stats](), "Proc": reflect.TypeFor[proc.Stats](),
	} {
		for i := range typ.NumField() {
			if f := typ.Field(i); f.Tag.Get("json") == "-" {
				hidden = append(hidden, section+"."+f.Name)
			}
		}
	}
	if len(hidden) != len(hiddenCounters) {
		t.Errorf(`json:"-" counters = %v, want exactly %v`, hidden, hiddenCounters)
	}
	for _, h := range hidden {
		if !hiddenCounters[h] {
			t.Errorf(`%s is tagged json:"-"; only %v may be`, h, hiddenCounters)
		}
	}
}

// hiddenCounters are the stats fields the Results JSON has never carried:
// NetNAKRetries (the stuck report's), TimeoutReissues (reported under
// Fault), Prefetches, UpgradeRefetch and proc Interventions.
var hiddenCounters = map[string]bool{
	"NC.NetNAKRetries": true, "NC.TimeoutReissues": true, "NC.Prefetches": true,
	"Proc.UpgradeRefetch": true, "Proc.Interventions": true,
}
