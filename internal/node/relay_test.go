package node

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func TestRelayValidation(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := NewRelay(nil, func() (transport.Conn, error) { return nil, nil }); err == nil {
		t.Error("nil listener accepted")
	}
	if _, err := NewRelay(l, nil); err == nil {
		t.Error("nil dialer accepted")
	}
}

func TestDistributedSessionThroughRelay(t *testing.T) {
	// Full session with every vehicle reaching the fusion centre only via
	// an RSU relay (Fig. 1 topology), including one malicious vehicle —
	// the relay must be protocol-transparent end to end.
	s := buildSession(t, 12, 3, 0)

	fcListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fcListener.Close()
	relayListener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewRelay(relayListener, func() (transport.Conn, error) {
		return transport.DialTCP(fcListener.Addr())
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := relay.Serve(); err != nil {
			t.Logf("relay serve: %v", err)
		}
	}()
	defer relay.Close()

	var wg sync.WaitGroup
	for i := range s.clients {
		conn, err := transport.DialTCP(relayListener.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	serverConns := make([]transport.Conn, len(s.clients))
	for i := range serverConns {
		done := make(chan struct{})
		var c transport.Conn
		var acceptErr error
		go func() {
			c, acceptErr = fcListener.Accept()
			close(done)
		}()
		select {
		case <-done:
			if acceptErr != nil {
				t.Fatal(acceptErr)
			}
			serverConns[i] = c
		case <-time.After(5 * time.Second):
			t.Fatal("timed out accepting relayed vehicles")
		}
	}
	report, err := s.server.Run(serverConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if report.Stragglers != 0 {
		t.Errorf("stragglers through relay = %d", report.Stragglers)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("honest relayed session flagged %v", report.SuspectedMalicious)
	}
}

// runRelaySession runs one session whose vehicles all reach the fusion
// centre through a single relay over pipe fabrics. wrap (nil = none)
// decorates each vehicle's relay connection.
func runRelaySession(t *testing.T, cfg ServerConfig, clients []ClientConfig, o *obs.Obs,
	wrap func(i int, c transport.Conn) transport.Conn) *Report {
	t.Helper()
	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	relay, err := NewRelayWith(RelayConfig{Listener: fabDown, Dial: fabUp.Dial, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := relay.Serve(); err != nil {
			t.Errorf("relay serve: %v", err)
		}
	}()
	defer relay.Close()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, cc := range clients {
		conn, err := fabDown.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			conn = wrap(i, conn)
		}
		wg.Add(1)
		go func(cc ClientConfig, conn transport.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := RunVehicle(conn, cc); err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}(cc, conn)
	}
	conns := make([]transport.Conn, len(clients))
	for i := range conns {
		c, err := fabUp.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	report, err := srv.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

// TestRelaySessionMatchesDirect: a session whose every vehicle reaches
// the fusion centre through a relay produces final parameters
// bit-identical to the same session over direct connections — the relay
// forwards frames, never alters them — and the relay counts one link per
// vehicle.
func TestRelaySessionMatchesDirect(t *testing.T) {
	const vehicles, rounds = 4, 2
	cfgs, clients := fleetScenario(t, []string{"g"}, vehicles, rounds)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)

	report := runRelaySession(t, cfgs["g"], clients["g"], o, nil)
	if report.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if got := reg.Counter("relay.links").Value(); got != vehicles {
		t.Fatalf("relay.links = %d, want %d", got, vehicles)
	}
	direct := soloRun(t, cfgs["g"], clients["g"])
	if !sameBits(report.FinalParams, direct.FinalParams) {
		t.Fatal("relayed session's final parameters differ from the direct session's")
	}
}

// claimIDConn rewrites the sender ID of every upload it sends, standing
// in for a vehicle that files its upload under another vehicle's ID.
type claimIDConn struct {
	transport.Conn
	claim int
}

func (c *claimIDConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		forged := *m.Upload
		forged.VehicleID = c.claim
		m = &protocol.Message{Upload: &forged}
	}
	return c.Conn.Send(m)
}

// TestRelayForeignUploadIDFillsOwnSlot: a vehicle behind a relay whose
// uploads claim another vehicle's ID still fills only its own slot — the
// fusion centre files every upload under the identity the connection's
// hello established, so the session runs exactly as if the claim were
// honest.
func TestRelayForeignUploadIDFillsOwnSlot(t *testing.T) {
	const vehicles, rounds = 4, 2
	cfgs, clients := fleetScenario(t, []string{"f"}, vehicles, rounds)
	cfg := cfgs["f"]
	cfg.RoundTimeout = 5 * time.Second // a misfiled upload would stall a round
	report := runRelaySession(t, cfg, clients["f"], nil, func(i int, c transport.Conn) transport.Conn {
		if i == 0 {
			return &claimIDConn{Conn: c, claim: 1}
		}
		return c
	})
	if report.Rounds != rounds || report.Stragglers != 0 || report.DegradedRounds != 0 ||
		len(report.SuspectedMalicious) != 0 {
		t.Fatalf("forged upload ID disturbed the session: %+v", report)
	}
	direct := soloRun(t, cfg, clients["f"])
	if !sameBits(report.FinalParams, direct.FinalParams) {
		t.Fatal("forged upload ID changed the final parameters")
	}
}

// TestRelayUpstreamDialFailureMidSession: an upstream dial failure no
// longer kills the relay — the affected vehicles' connections close,
// those vehicles retry directly against the fusion centre, and the
// session completes with the relay still serving its remaining shard.
func TestRelayUpstreamDialFailureMidSession(t *testing.T) {
	const vehicles, rounds = 4, 2
	cfgs, clients := fleetScenario(t, []string{"d"}, vehicles, rounds)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	clk := &obs.ManualClock{}
	o := obs.New(reg, obs.NewTracer(&buf, clk), clk)

	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	var dials atomic.Int32
	relay, err := NewRelayWith(RelayConfig{
		Listener: fabDown,
		Dial: func() (transport.Conn, error) {
			if dials.Add(1) > 2 {
				return nil, fmt.Errorf("upstream refused")
			}
			return fabUp.Dial()
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- relay.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < vehicles; i++ {
		cc := clients["d"][i]
		var attempts atomic.Int32
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunVehicleRetry(cc, RetryConfig{
				Dial: func() (transport.Conn, error) {
					if attempts.Add(1) == 1 {
						return fabDown.Dial() // first try goes through the relay
					}
					return fabUp.Dial() // recovery dials the fusion centre directly
				},
				Sleeper: &obs.ManualSleeper{},
			})
			if err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	conns := make([]transport.Conn, vehicles)
	for i := range conns {
		c, err := fabUp.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	srv, err := NewServer(cfgs["d"])
	if err != nil {
		t.Fatal(err)
	}
	// Later arrivals (there should be none here, but a slow vehicle may
	// re-dial) are rejoins.
	rejoinsDone := make(chan struct{})
	go func() {
		defer close(rejoinsDone)
		for {
			c, err := fabUp.Accept()
			if err != nil {
				return
			}
			srv.Rejoin(c)
		}
	}()
	report, err := srv.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if got := reg.Counter("relay.dial_errors").Value(); got != 2 {
		t.Fatalf("relay.dial_errors = %d, want 2", got)
	}
	select {
	case err := <-serveErr:
		t.Fatalf("relay serve exited mid-session: %v", err)
	default:
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("relay serve after close: %v", err)
	}
	fabUp.Close()
	<-rejoinsDone
}

// crashAtRoundConn makes a relay upstream leg die the moment the given
// round's broadcast arrives, simulating a relay crash at a deterministic
// point in the session. The embedded interface deliberately drops the
// optional faces — a crashed relay flushes nothing.
type crashAtRoundConn struct {
	transport.Conn
	round int
}

func (c *crashAtRoundConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && m.Broadcast.Round == c.round {
		_ = c.Conn.Close()
		return nil, fmt.Errorf("relay crashed")
	}
	return m, err
}

// TestRelayCrashVehiclesRecoverDirect: the relay crashes when round 2
// begins — no vehicle can make progress through it — and every vehicle
// behind it reconnects directly to the fusion centre through
// RunVehicleRetry. The session still completes all its rounds.
func TestRelayCrashVehiclesRecoverDirect(t *testing.T) {
	const vehicles, rounds = 4, 3
	cfgs, clients := fleetScenario(t, []string{"c"}, vehicles, rounds)
	cfg := cfgs["c"]
	// Generous: on a loaded -race run a short timeout can expire before
	// the crashed shard finishes rejoining, degrading the round and
	// completing the session with zero rejoins to count.
	cfg.RoundTimeout = 60 * time.Second
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	relay, err := NewRelay(fabDown, func() (transport.Conn, error) {
		c, err := fabUp.Dial()
		if err != nil {
			return nil, err
		}
		return &crashAtRoundConn{Conn: c, round: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = relay.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < vehicles; i++ {
		cc := clients["c"][i]
		var attempts atomic.Int32
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunVehicleRetry(cc, RetryConfig{
				Dial: func() (transport.Conn, error) {
					if attempts.Add(1) == 1 {
						return fabDown.Dial()
					}
					return fabUp.Dial()
				},
				MaxAttempts: 10,
				Sleeper:     &obs.ManualSleeper{},
			})
			if err != nil {
				t.Errorf("vehicle %d: %v", cc.VehicleID, err)
			}
		}()
	}
	conns := make([]transport.Conn, vehicles)
	for i := range conns {
		c, err := fabUp.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	rejoinsDone := make(chan struct{})
	go func() {
		defer close(rejoinsDone)
		for {
			c, err := fabUp.Accept()
			if err != nil {
				return
			}
			srv.Rejoin(c)
		}
	}()
	report, err := srv.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", report.Rounds, rounds)
	}
	if report.Rejoins < 1 {
		t.Fatalf("rejoins = %d, want >= 1 after the relay crash", report.Rejoins)
	}
	if report.DegradedRounds != 0 {
		t.Fatalf("degraded rounds = %d, want 0 (recovery, not degradation)", report.DegradedRounds)
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	fabUp.Close()
	<-rejoinsDone
}

// holdConn keeps every sent frame back until Flush, like a buffered
// fabric whose write buffer has not been pushed yet.
type holdConn struct {
	transport.Conn
	mu   sync.Mutex
	held []*protocol.Message // guarded by mu
}

func (c *holdConn) Send(m *protocol.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = append(c.held, m)
	return nil
}

func (c *holdConn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.held {
		if err := c.Conn.Send(m); err != nil {
			return err
		}
	}
	c.held = nil
	return nil
}

func (c *holdConn) heldCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.held)
}

// busyConn always reports more input pending, so a relay reading from it
// never reaches its own flush point.
type busyConn struct{ transport.Conn }

func (busyConn) Pending() bool { return true }

// busyListener hands out busyConns.
type busyListener struct{ *transport.PipeFabric }

func (l busyListener) Accept() (transport.Conn, error) {
	c, err := l.PipeFabric.Accept()
	if err != nil {
		return nil, err
	}
	return busyConn{c}, nil
}

// TestRelayCloseDrainsParkedUploads: regression for the shutdown race
// where Relay.Close's best-effort flush could drop frames the relay had
// already accepted. An upload the relay forwarded into an unflushed
// upstream buffer must reach the fusion centre before the connections
// are torn down.
func TestRelayCloseDrainsParkedUploads(t *testing.T) {
	fabUp := transport.NewPipeFabric(0)
	fabDown := transport.NewPipeFabric(0)
	up := make(chan *holdConn, 1)
	relay, err := NewRelay(busyListener{fabDown}, func() (transport.Conn, error) {
		c, err := fabUp.Dial()
		if err != nil {
			return nil, err
		}
		h := &holdConn{Conn: c}
		up <- h
		return h, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = relay.Serve() }()

	v1, err := fabDown.Dial()
	if err != nil {
		t.Fatal(err)
	}
	u1, err := fabUp.Accept()
	if err != nil {
		t.Fatal(err)
	}
	leg := <-up
	if err := v1.Send(&protocol.Message{Upload: &protocol.Upload{Round: 1, VehicleID: 0, Values: []float64{42}}}); err != nil {
		t.Fatal(err)
	}
	// Wait until the relay has accepted the upload into the unflushed
	// upstream buffer (not delivered, not dropped), then close the relay:
	// the close must put it on the wire.
	for leg.heldCount() == 0 {
		runtime.Gosched()
	}
	if transport.Pending(u1) {
		t.Fatal("upload delivered before any flush")
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := u1.Recv()
	if err != nil {
		t.Fatalf("accepted upload lost at close: %v", err)
	}
	if m.Upload == nil || m.Upload.Round != 1 || m.Upload.Values[0] != 42 {
		t.Fatalf("drained frame = %+v, want the accepted upload", m)
	}
	_ = v1.Close()
	_ = u1.Close()
}
