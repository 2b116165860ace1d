package mcheck

import (
	"bytes"
	"strings"
	"testing"

	"numachine/internal/trace"
)

// TestMutationsCaught proves the checker has teeth: each deliberate
// protocol defect in the mutation table must be caught, and its
// counterexample must replay to a violation with a valid event trace.
func TestMutationsCaught(t *testing.T) {
	for _, mc := range MutationTable() {
		mc := mc
		t.Run(mc.Name, func(t *testing.T) {
			c, err := New(mc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			c.SetMutation(mc.Mut)
			c.StopAtFirst = true
			res := c.Run()
			if len(res.Violations) == 0 {
				t.Fatalf("mutation %s (%s) escaped: %s", mc.Name, mc.Expect, res)
			}
			v := res.Violations[0]
			t.Logf("caught: %s", v.String())
			switch mc.Name {
			case "skip-bus-inval", "stale-read-li":
				// A stale copy at quiescence is the machine's own
				// invariant loop's catch (Machine.Step under CheckInvariants).
				if !strings.HasPrefix(v.Err.Error(), "core: invariant violation") {
					t.Errorf("caught by %q, want the machine's quiescence check", v.Err)
				}
			case "skip-net-inval":
				// A liveness counterexample carries the stuck-transaction
				// report: the home still holds the line locked for the
				// invalidation that never returns.
				if v.Report == nil || !strings.Contains(v.String(), "locked=true") {
					t.Errorf("liveness violation without a stuck report naming the locked line:\n%s", v.String())
				}
			}

			tr, rv := c.Replay(v.Choices, 8192)
			if rv == nil {
				t.Fatalf("counterexample %s did not replay to a violation", FormatChoices(v.Choices))
			}
			if rv.Cycle != v.Cycle {
				t.Fatalf("replayed violation at cycle %d, original at %d", rv.Cycle, v.Cycle)
			}
			if tr == nil {
				t.Fatal("replay with tracing returned no tracer")
			}
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			if n, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("counterexample trace is not valid Chrome JSON: %v", err)
			} else if n == 0 {
				t.Fatal("counterexample trace contains no events")
			}
		})
	}
}

// TestMutationSpecsCleanWithoutMutation guards the table's specs
// themselves: with the defect switched off, each spec must explore to a
// fixpoint with zero violations — so a caught mutation is evidence about
// the mutation, not about the spec.
func TestMutationSpecsCleanWithoutMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("full clean sweeps of all mutation specs are slow")
	}
	for _, mc := range MutationTable() {
		mc := mc
		t.Run(mc.Name, func(t *testing.T) {
			c, err := New(mc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			res := c.Run()
			t.Logf("clean sweep: %s", res)
			if len(res.Violations) != 0 {
				t.Fatalf("spec violates without its mutation:\n%s", res)
			}
			if !res.Complete {
				t.Fatalf("clean sweep did not reach a fixpoint: %s", res)
			}
		})
	}
}
