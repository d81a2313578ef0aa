package node

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// runOverTCP executes the session over a buffered TCP fabric, returning
// the server report. Vehicles dial with the same buffering options the
// listener hands out.
func runOverTCP(t *testing.T, s *session, opts transport.Options) *Report {
	t.Helper()
	return runOverTCPObs(t, s, opts, nil)
}

// runOverTCPObs is runOverTCP with an observability handle attached to
// every vehicle session (nil = plain vehicles), so propagation-enabled
// interop can be exercised end to end.
func runOverTCPObs(t *testing.T, s *session, opts transport.Options, vo *obs.Obs) *Report {
	t.Helper()
	l, err := transport.ListenTCPOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverConns := make([]transport.Conn, len(s.clients))
	accepted := make(chan transport.Conn, len(s.clients))
	go func() {
		for range s.clients {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	var wg sync.WaitGroup
	for i := range s.clients {
		conn, err := transport.DialTCPOptions(l.Addr(), 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			sess, err := newVehicleSession(s.clients[i], vo)
			if err != nil {
				t.Errorf("vehicle %d: %v", i, err)
				return
			}
			if err := sess.run(conn); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	for i := range serverConns {
		select {
		case serverConns[i] = <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out accepting vehicles")
		}
	}
	report, err := s.server.Run(serverConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

// TestMixedVersionSession: there is one protocol revision, so a fleet
// that mixes revisions cannot form a session — a vehicle announcing any
// other revision fails the fusion centre's handshake, and a vehicle
// refuses a Setup announcing any other revision. Within the one revision,
// a session over buffered TCP with trace propagation on (context-bearing
// binary frames) produces exactly the model the plain session produces.
func TestMixedVersionSession(t *testing.T) {
	opts := transport.Options{WriteBuffer: 64 << 10, ReadBuffer: 64 << 10}

	pure := buildSession(t, 10, 3, 0)
	pureReport := runOverTCP(t, pure, opts)
	if pureReport.Rounds != 3 || pureReport.Stragglers != 0 || pureReport.RecvErrors != 0 {
		t.Fatalf("plain session not clean: %+v", pureReport)
	}

	reg := obs.NewRegistry()
	var trace bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&trace, clk), clk)
	prop := buildSessionObs(t, 10, 3, 0, o)
	propReport := runOverTCPObs(t, prop, opts, o)
	if propReport.Rounds != 3 || propReport.Stragglers != 0 || propReport.RecvErrors != 0 {
		t.Fatalf("propagated session not clean: %+v", propReport)
	}
	if !sameBits(pureReport.FinalParams, propReport.FinalParams) {
		t.Fatal("trace propagation changed the final parameters")
	}
	// The propagation must actually have happened: vehicle-side stage
	// spans carry the fusion round span as their parent.
	for _, key := range []string{`"ev":"node.ingest"`, `"ev":"node.train"`, `"parent":`} {
		if !bytes.Contains(trace.Bytes(), []byte(key)) {
			t.Fatalf("propagated session trace missing %s", key)
		}
	}

	// A vehicle at the previous revision: Run refuses the session.
	mixed := buildSession(t, 10, 1, 0)
	var wg sync.WaitGroup
	for i := 1; i < len(mixed.clients); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunVehicle(mixed.vconns[i], mixed.clients[i]) // fails once Run gives up
		}(i)
	}
	old := &protocol.Message{Hello: &protocol.Hello{Version: protocol.Version - 1, VehicleID: 0}}
	if err := mixed.vconns[0].Send(old); err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.server.Run(mixed.conns); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("session with a previous-revision vehicle: err = %v, want a version refusal", err)
	}
	for _, c := range mixed.conns {
		_ = c.Close()
	}
	wg.Wait()

	// A fusion centre at the previous revision: the vehicle refuses its
	// Setup with a permanent error.
	fc, vc := transport.Pipe()
	defer fc.Close()
	done := make(chan error, 1)
	go func() { done <- RunVehicle(vc, mixed.clients[0]) }()
	if m, err := fc.Recv(); err != nil || m.Hello == nil || m.Hello.Version != protocol.Version {
		t.Fatalf("vehicle hello = %+v, %v", m, err)
	}
	if err := fc.Send(&protocol.Message{Setup: &protocol.Setup{WireVersion: protocol.Version - 1}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || IsTransient(err) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("vehicle accepted a previous-revision Setup: err = %v", err)
	}
}
