package msg

import (
	"testing"
	"unsafe"
)

// TestMessageSize pins the message to the fields some receiver reads: every
// bus transfer and ring packet moves one, and the pools hold thousands.
func TestMessageSize(t *testing.T) {
	if s := unsafe.Sizeof(Message{}); s > 120 {
		t.Fatalf("Message is %d bytes, want <= 120", s)
	}
}

// TestPacketSize pins the packet, a value copied from ring slot to FIFO to
// slot, at four words: the message pointer, the index, mask and sequenced
// flag packed into one, and the two timestamps.
func TestPacketSize(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s != 32 {
		t.Fatalf("Packet is %d bytes, want 32", s)
	}
}

func TestSinkableClassification(t *testing.T) {
	// §2.4: nonsinkable messages are those that elicit responses — all
	// request and intervention types; everything else can always be sunk.
	nonsinkable := []Type{RemRead, RemReadEx, RemUpgd, SpecialWrReq,
		NetIntervShared, NetIntervEx, KillReq}
	for _, ty := range nonsinkable {
		if ty.Sinkable() {
			t.Errorf("%v must be nonsinkable", ty)
		}
	}
	sinkable := []Type{NetData, NetDataEx, NetUpgdAck, NetNAK, NetWBCopy,
		NetXferDone, RemWrBack, Invalidate, NetInterrupt,
		FalseRemoteResp, NetIntervMiss}
	for _, ty := range sinkable {
		if !ty.Sinkable() {
			t.Errorf("%v must be sinkable", ty)
		}
	}
}

func TestCarriesData(t *testing.T) {
	withData := []Type{ProcData, ProcDataEx, IntervResp, NetData, NetDataEx,
		NetWBCopy, RemWrBack, LocalWrBack}
	for _, ty := range withData {
		if !ty.CarriesData() {
			t.Errorf("%v must carry a line payload", ty)
		}
	}
	without := []Type{LocalRead, RemRead, RemUpgd, NetUpgdAck, NetNAK,
		Invalidate, ProcUpgdAck, ProcNAK, BusInval, BusIntervention,
		IntervMiss, NetIntervShared, NetIntervEx, NetXferDone}
	for _, ty := range without {
		if ty.CarriesData() {
			t.Errorf("%v must not carry a payload", ty)
		}
	}
}

func TestPacketCounts(t *testing.T) {
	// Single packet for commands; 1 + PacketsPerLine for line transfers
	// (§2.2: "all data transfers that do not include the contents of a
	// cache line require only a single packet").
	m := &Message{Type: RemRead}
	if n := m.Packets(); n != 1 {
		t.Errorf("command message uses %d packets, want 1", n)
	}
	d := &Message{Type: NetData}
	if n := d.Packets(); n != 5 {
		t.Errorf("data message uses %d packets, want 5", n)
	}
}

func TestTypeStrings(t *testing.T) {
	// The slot after NetInterrupt is retired (a barrier-register write) and
	// stays blank so that KillReq keeps the byte value traces and goldens carry.
	const retired = NetInterrupt + 1
	if KillReq != retired+1 {
		t.Fatalf("KillReq = %d, want %d", KillReq, retired+1)
	}
	for ty := LocalRead; ty <= KillReq; ty++ {
		if ty == retired {
			continue
		}
		s := ty.String()
		if s == "" || s[0] == 'T' && len(s) > 5 && s[:5] == "Type(" {
			t.Errorf("type %d has no mnemonic", ty)
		}
	}
	if Invalid.String() != "Type(0)" {
		t.Errorf("Invalid renders as %q", Invalid.String())
	}
}
