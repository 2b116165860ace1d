package serve

import "testing"

// TestServeSoak is the serving-layer robustness pass for CI's race jobs:
// a longer closed-loop scenario whose dispatcher/worker mailbox handoffs
// would race if the handshake-pinned protocol were wrong, run with the
// front-end hit fast path on and cross-checked request-for-request with
// it off. Skipped under -short; the equivalence suite already covers the
// small scenarios there, under the pooled executor too.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: long closed-loop run")
	}
	const spec = "closed=12,requests=400,procs=8,tenants=4,span=512,depth=3," +
		"discipline=edf,policy=locality," +
		"class=interactive:4:8:20:25:4000,class=batch:1:64:80:50:0"
	ref, refRes := runServe(t, testConfig(true), spec, 11)
	s := refRes.Serve
	if s.Total.Arrived != 400 || s.Total.Completed != 400 || s.Total.Dropped != 0 {
		t.Fatalf("closed loop leaked requests: arrived=%d completed=%d dropped=%d",
			s.Total.Arrived, s.Total.Completed, s.Total.Dropped)
	}
	if report, _ := runServe(t, testConfig(false), spec, 11); report != ref {
		t.Errorf("fast hits off diverges from on:\n--- on\n%s--- off\n%s", ref, report)
	}
}
