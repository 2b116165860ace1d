package msg

import "testing"

func TestMessageRefcountLastRelease(t *testing.T) {
	m := &Message{Type: Invalidate}
	m.InitRefs(3) // e.g. a 3-packet multicast chain
	if m.Release() {
		t.Fatal("first of 3 releases claimed ownership")
	}
	m.AddRef() // a consume copy appears before the chain finishes
	if m.Release() || m.Release() {
		t.Fatal("mid-chain release claimed ownership")
	}
	if !m.Release() {
		t.Fatal("final release did not claim ownership")
	}
}

func TestMessageRefcountUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release past zero did not panic")
		}
	}()
	m := &Message{}
	m.InitRefs(1)
	m.Release()
	m.Release() // one release too many — a double packet death
}
