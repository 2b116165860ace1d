package serve

import "testing"

// FuzzParseServeSpec pins the spec grammar: every accepted spec must
// validate, and its canonical String form must re-parse to the same spec
// (String is what reports embed, so a non-round-tripping form would make
// a report unreproducible).
func FuzzParseServeSpec(f *testing.F) {
	f.Add("")
	f.Add(DefaultSpec)
	for _, s := range serveSpecs {
		f.Add(s)
	}
	f.Add("open=1,duration=1000")
	f.Add("closed=4,requests=10,discipline=edf,policy=least-load")
	f.Add("open=1,requests=5,class=a:1:1:0:0:0,class=b:2:3:4:5:6")
	f.Add(",,,")
	f.Add("open=0")
	f.Add("open=1,closed=1,requests=3")
	f.Add("class=x:1:1")
	f.Add("policy=nope")
	// Resilience grammar seeds: every clause, defaults, and the
	// dependency/range violations validate must reject.
	f.Add("open=1,duration=1000,kill=4,retries=2,backoff=100:800,retry-budget=8,hedge=500,breaker=150:2000,shed=on")
	f.Add("closed=2,requests=8,kill=1,retries=1") // backoff defaulted
	f.Add("open=1,duration=100,kill=2,hedge=7")
	f.Add("open=1,duration=100,retries=2") // needs kill=
	f.Add("open=1,duration=100,kill=2,retries=1,backoff=5:1")
	f.Add("open=1,duration=100,retry-budget=3") // needs retries=
	f.Add("open=1,duration=100,hedge=9")        // needs kill=
	f.Add("open=1,duration=100,breaker=50:10")  // threshold below 100%
	f.Add("open=1,duration=100,breaker=200")    // missing cooldown
	f.Add("open=1,duration=100,shed=off")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := sp.validate(); err != nil {
			t.Fatalf("accepted spec fails validate: %v\nspec: %+v", err, sp)
		}
		if (sp.OpenRate > 0) == (sp.Closed > 0) {
			t.Fatalf("accepted spec is not exactly one of open/closed: %+v", sp)
		}
		if sp.Procs <= 0 || sp.Tenants <= 0 || sp.QueueCap <= 0 || sp.Depth <= 0 ||
			sp.SpanLines <= 0 || sp.Poll <= 0 || sp.Quantum <= 0 {
			t.Fatalf("accepted spec with non-positive knob: %+v", sp)
		}
		for _, c := range sp.Classes {
			if c.Weight <= 0 || c.Touches <= 0 || c.Think < 0 ||
				c.WritePct < 0 || c.WritePct > 100 || c.Deadline < 0 {
				t.Fatalf("accepted unusable class %+v", c)
			}
		}
		// Resilience invariants: clause dependencies and ranges that the
		// controller relies on without re-checking.
		if sp.KillEvery < 0 || sp.Retries < 0 || sp.RetryBudget < 0 ||
			sp.RetryBase < 0 || sp.RetryMax < 0 || sp.Hedge < 0 ||
			sp.BreakerPct < 0 || sp.BreakerCool < 0 {
			t.Fatalf("accepted spec with negative resilience knob: %+v", sp)
		}
		if sp.Retries > 0 && (sp.KillEvery == 0 || sp.RetryBase <= 0 || sp.RetryMax < sp.RetryBase) {
			t.Fatalf("accepted retries without kill/backoff support: %+v", sp)
		}
		if sp.RetryBudget > 0 && sp.Retries == 0 {
			t.Fatalf("accepted retry budget without retries: %+v", sp)
		}
		if sp.Hedge > 0 && sp.KillEvery == 0 {
			t.Fatalf("accepted hedge without kill: %+v", sp)
		}
		if sp.BreakerPct > 0 && (sp.BreakerPct < 100 || sp.BreakerCool <= 0) {
			t.Fatalf("accepted unusable breaker: %+v", sp)
		}
		canon := sp.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point:\n %q\n %q", canon, again.String())
		}
	})
}
