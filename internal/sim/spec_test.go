package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestParseClauses(t *testing.T) {
	var got []string
	collect := func(k, v string) error { got = append(got, k+"→"+v); return nil }
	if err := ParseClauses("x", " a=1, ,b=2=3 ,c=", collect); err != nil {
		t.Fatal(err)
	}
	if want := "a→1 b→2=3 c→"; strings.Join(got, " ") != want {
		t.Errorf("clauses %q, want %q", strings.Join(got, " "), want)
	}
	if err := ParseClauses("x", "", collect); err != nil {
		t.Errorf("empty spec: %v", err)
	}
	if err := ParseClauses("pkg", "a=1,oops", collect); err == nil || err.Error() != `pkg: clause "oops" is not key=value` {
		t.Errorf("clause without '=': %v", err)
	}
	cause := errors.New("bad")
	calls := 0
	err := ParseClauses("pkg", "a=1, b=2 ,c=3", func(k, v string) error {
		calls++
		if k == "b" {
			return cause
		}
		return nil
	})
	if !errors.Is(err, cause) || err.Error() != `pkg: clause "b=2": bad` || calls != 2 {
		t.Errorf("err = %v after %d calls, want the wrapped cause after 2", err, calls)
	}
}

// FuzzParseClauses is the one fuzz target of the clause walker both spec
// grammars share, seeded with the corpora of the two parsers built on it
// (FuzzParseSpec in internal/fault, FuzzParseServeSpec in internal/serve).
func FuzzParseClauses(f *testing.F) {
	for _, s := range []string{
		"", ",,,",
		"drop=0.02,dup=0.01",
		"freeze-mem=5000:200,timeout=2500",
		"wedge-mem=0:0,degrade-ring=1:1",
		"drop=1e-3,drop=0.5",
		"drop=0.1,unknown=2",
		"open=2,duration=100000,procs=16,tenants=4,class=interactive:4:16:40:25:6000,class=batch:1:96:100:50:0",
		"closed=4,requests=10,discipline=edf,policy=least-load",
		"open=1,requests=5,class=a:1:1:0:0:0,class=b:2:3:4:5:6",
		"open=0", "class=x:1:1", "policy=nope",
		"open=1,duration=1000,kill=4,retries=2,backoff=100:800,retry-budget=8,hedge=500,breaker=150:2000,shed=on",
		"open=1,duration=100,breaker=200",
		" a = 1 ,b", "=", "a==b",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var pairs []string
		err := ParseClauses("fuzz", s, func(k, v string) error {
			if strings.ContainsAny(k, "=,") || strings.Contains(v, ",") {
				t.Fatalf("clause split wrong: key %q val %q", k, v)
			}
			pairs = append(pairs, k+"="+v)
			return nil
		})
		if err != nil {
			if !strings.HasPrefix(err.Error(), `fuzz: clause "`) || !strings.HasSuffix(err.Error(), "is not key=value") {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		// The accepted clauses, re-joined, walk to themselves.
		var again []string
		if err := ParseClauses("fuzz", strings.Join(pairs, ","), func(k, v string) error {
			again = append(again, k+"="+v)
			return nil
		}); err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if strings.Join(again, ",") != strings.Join(pairs, ",") {
			t.Fatalf("re-walk %q != %q", again, pairs)
		}
	})
}

func TestSpecValues(t *testing.T) {
	if n, err := ParsePositive("12"); n != 12 || err != nil {
		t.Errorf("ParsePositive(12) = %d, %v", n, err)
	}
	if _, err := ParsePositive("0"); err == nil || err.Error() != "value 0 not positive" {
		t.Errorf("ParsePositive(0): %v", err)
	}
	if _, err := ParseCount("-3"); err == nil || err.Error() != "value -3 not positive" {
		t.Errorf("ParseCount(-3): %v", err)
	}
	if n, err := ParseNonNeg("0"); n != 0 || err != nil {
		t.Errorf("ParseNonNeg(0) = %d, %v", n, err)
	}
	if _, err := ParseNonNeg("-1"); err == nil || err.Error() != "value -1 negative" {
		t.Errorf("ParseNonNeg(-1): %v", err)
	}
	for _, bad := range []string{"NaN", "-0.1", "1.5", "x"} {
		if _, err := ParseProb(bad); err == nil {
			t.Errorf("ParseProb(%q) accepted", bad)
		}
	}
	if _, _, err := CutPair("window", "GAP:DUR", "5"); err == nil || err.Error() != `window "5" is not GAP:DUR` {
		t.Errorf("CutPair without ':': %v", err)
	}
	if a, b, err := CutPair("w", "A:B", "1:2:3"); a != "1" || b != "2:3" || err != nil {
		t.Errorf("CutPair(1:2:3) = %q, %q, %v", a, b, err)
	}
}
