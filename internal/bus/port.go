package bus

import (
	"numachine/internal/fault"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/trace"
)

// Port is the bus side of a station controller that serves one bus
// transaction at a time: an SRAM directory in front of DRAM, as in the
// memory module (§3.1.2) and the network cache (§3.1.4), which embed it.
// Delivered messages wait in its input FIFO; the controller takes one,
// stays occupied for the message's directory (and DRAM) access time, and
// only then acts on it. Everything the controller sends waits in the
// output FIFO of its Out for the arbiter. A Port is station-local, like
// its owner.
type Port struct {
	Out

	inQ    sim.Queue[*msg.Message]
	busy   int64        // first cycle after the current access
	staged *msg.Message // the message under access until busy

	// Fault holds the controller's injected freeze/wedge schedule (nil in
	// fault-free runs; every method is inert on nil).
	Fault *fault.Comp

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink
}

// BusDeliver implements Module: enqueue for in-order processing.
func (p *Port) BusDeliver(x *msg.Message, now int64) {
	p.inQ.Push(x)
	p.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(p.inQ.Len()), 0)
}

// InQStats exposes the input-queue statistics (diagnostics).
func (p *Port) InQStats() sim.QueueStats { return p.inQ.Stats() }

// InQDepth returns the current input-queue depth (diagnostics).
func (p *Port) InQDepth() int { return p.inQ.Len() }

// Idle reports whether no message is queued, under access or waiting for
// the bus.
func (p *Port) Idle() bool { return p.inQ.Empty() && p.outQ.Empty() && p.staged == nil }

// ReadyAt reports the earliest cycle at or after now at which Step has
// work, or at which the owner's own timer, due at wake (sim.Never for
// none), fires: the end of the current access when a message is staged,
// or now when input is queued. The gate runs after the bus phase of the
// cycle, so same-cycle deliveries are visible exactly as a tick would see
// them. An injected freeze pushes the wake-up to the window's end (Never
// once wedged), so the event-aware loops skip exactly the cycles the
// naive loop's Tick stalls through.
func (p *Port) ReadyAt(now, wake int64) int64 {
	if p.staged != nil || !p.inQ.Empty() {
		if now >= p.busy {
			return p.Fault.NextFree(now)
		}
		wake = min(wake, p.busy)
	}
	return p.Fault.NextFree(wake)
}

// Step advances the controller at now, once its access has ended: the
// staged message takes effect through handle, then the next queued one is
// staged for cost(type) cycles. Bus-delivered messages are single-owner
// (the ring interface hands the bus a private copy of every reassembled
// or looped-back message) and handle retains only field values, so the
// handled message is recycled.
func (p *Port) Step(now int64, handle func(*msg.Message, int64), cost func(msg.Type) int) {
	if now < p.busy {
		return
	}
	if x := p.staged; x != nil {
		p.staged = nil
		handle(x, now)
		p.Msgs.Put(x)
	}
	x, ok := p.inQ.Pop()
	if !ok {
		return
	}
	p.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(p.inQ.Len()), 0)
	p.busy = now + int64(cost(x.Type))
	p.staged = x
}
