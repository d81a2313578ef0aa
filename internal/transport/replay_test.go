package transport

import (
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
)

// TestReplayDeliversHeadThenStream: the wrapped connection's first Recv
// is the replayed frame, subsequent Recvs come from the live stream, and
// Pending reports the buffered head.
func TestReplayDeliversHeadThenStream(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	hello := &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: 3, SessionID: "s0"}}
	var released atomic.Int32
	rc := Replay(hello, b, func() { released.Add(1) })
	if !Pending(rc) {
		t.Fatal("replayed head not reported as pending")
	}
	got, err := rc.Recv()
	if err != nil || got.Hello == nil || got.Hello.SessionID != "s0" {
		t.Fatalf("first recv = %+v, %v", got, err)
	}
	up := &protocol.Message{Upload: &protocol.Upload{Round: 1, VehicleID: 3, Values: []float64{1}}}
	if err := a.Send(up); err != nil {
		t.Fatal(err)
	}
	got, err = rc.Recv()
	if err != nil || got.Upload == nil || got.Upload.Round != 1 {
		t.Fatalf("second recv = %+v, %v", got, err)
	}
	// Send path passes through to the peer.
	if err := rc.Send(up); err != nil {
		t.Fatal(err)
	}
	if m, err := a.Recv(); err != nil || m.Upload == nil {
		t.Fatalf("peer recv = %+v, %v", m, err)
	}
	// Close fires the hook exactly once, even when called twice.
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	_ = rc.Close()
	if n := released.Load(); n != 1 {
		t.Fatalf("onClose fired %d times, want 1", n)
	}
}

// TestReplayForwardsFaces: the optional connection faces reach the
// wrapped fabric through the replay wrapper.
func TestReplayForwardsFaces(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	rc := Replay(nil, b, nil)
	if err := Flush(rc); err != nil {
		t.Fatalf("flush: %v", err)
	}
	f, ok := rc.(Faulter)
	if !ok {
		t.Fatal("replay wrapper lost the Faulter face")
	}
	if err := f.SendCorrupt(&protocol.Message{Finished: &protocol.Finished{Rounds: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err == nil {
		t.Fatal("corrupt frame delivered clean through replay wrapper")
	}
}

// TestPipeFabric: Dial/Accept hand matched ends across the in-memory
// fabric, and Close fails both sides cleanly.
func TestPipeFabric(t *testing.T) {
	f := NewPipeFabric(0)
	client, err := f.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server, err := f.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(&protocol.Message{Finished: &protocol.Finished{Rounds: 2}}); err != nil {
		t.Fatal(err)
	}
	if m, err := server.Recv(); err != nil || m.Finished == nil || m.Finished.Rounds != 2 {
		t.Fatalf("fabric recv = %+v, %v", m, err)
	}
	if f.Addr() != "" {
		t.Fatalf("pipe fabric has addr %q", f.Addr())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial(); err == nil {
		t.Fatal("dial succeeded on closed fabric")
	}
	if _, err := f.Accept(); err == nil {
		t.Fatal("accept succeeded on closed fabric")
	}
	_ = client.Close()
	_ = server.Close()
}
