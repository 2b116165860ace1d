package msg

import "testing"

func TestMessagePoolRecycles(t *testing.T) {
	var p Pool[Message]
	a := p.Get()
	a.Type, a.Line, a.Data, a.Retry = LocalRead, 0x40, 7, true
	p.Put(a)
	if *a != (Message{}) {
		t.Fatalf("Put did not zero the message: %+v", a)
	}
	b := p.Get()
	if b != a {
		t.Error("Get did not recycle the freed message")
	}
	if *b != (Message{}) {
		t.Errorf("recycled message not blank: %+v", b)
	}
	news, hits := p.Stats()
	if news != 1 || hits != 1 {
		t.Errorf("Stats() = %d,%d; want 1,1", news, hits)
	}
	if p.Get() == b {
		t.Error("Get returned an in-use message")
	}
}

// TestMessagePoolNilSafe pins that releasing a nil record is a no-op.
func TestMessagePoolNilSafe(t *testing.T) {
	var p Pool[Message]
	p.Put(nil)
	if p.Get(); len(p.free) != 0 {
		t.Errorf("Put(nil) left %d records on the free list", len(p.free))
	}
}

// TestPoolDoubleFreeDetected verifies the debug guard turns a double Put
// — which would silently hand one struct to two owners — into a panic.
func TestPoolDoubleFreeDetected(t *testing.T) {
	defer SetPoolDebug(SetPoolDebug(true))
	t.Run("message", func(t *testing.T) {
		var p Pool[Message]
		m := p.Get()
		p.Put(m)
		defer func() {
			if recover() == nil {
				t.Error("double Put of a message did not panic")
			}
		}()
		p.Put(m)
	})
}

// TestMessagePoolNoLeak pins the free-list bookkeeping: after every Get
// has a matching Put, the pool owns exactly the allocated messages, and a
// fresh Get cycle allocates nothing new.
func TestMessagePoolNoLeak(t *testing.T) {
	var p Pool[Message]
	const n = 64
	live := make([]*Message, 0, n)
	for i := 0; i < n; i++ {
		live = append(live, p.Get())
	}
	for _, m := range live {
		p.Put(m)
	}
	for i := 0; i < n; i++ {
		p.Get()
	}
	news, hits := p.Stats()
	if news != n || hits != n {
		t.Errorf("Stats() = %d,%d; want %d,%d (a second round should be all recycles)", news, hits, n, n)
	}
}
