package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// session builds a complete distributed scenario over the given fabric.
type session struct {
	server  *Server
	conns   []transport.Conn // fusion-centre side
	clients []ClientConfig
	vconns  []transport.Conn // vehicle side
	test    *traffic.Dataset
}

func buildSession(t *testing.T, vehicles, rounds int, maliciousFrac float64) *session {
	t.Helper()
	return buildSessionObs(t, vehicles, rounds, maliciousFrac, nil)
}

// buildSessionObs is buildSession with an observability handle attached
// to the server and every fusion-centre connection (nil = plain session).
func buildSessionObs(t *testing.T, vehicles, rounds int, maliciousFrac float64, o *obs.Obs) *session {
	t.Helper()
	return buildSessionFull(t, vehicles, rounds, maliciousFrac, o, 0)
}

// buildSessionFull additionally pins the scheme's worker count (0 =
// GOMAXPROCS) — the chaos determinism tests sweep it. It takes a
// testing.TB so the round-engine benchmarks can reuse it.
func buildSessionFull(t testing.TB, vehicles, rounds int, maliciousFrac float64, o *obs.Obs, workers int) *session {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 1200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 22)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 8 * 24, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	refX := refDS.Features()
	parts, err := train.PartitionIID(vehicles, 24)
	if err != nil {
		t.Fatal(err)
	}
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{
		FL: fl.Config{
			InputSize:     traffic.NumFeatures,
			LocalEpochs:   5,
			LocalRate:     0.2,
			DistillEpochs: 20,
			DistillRate:   0.2,
			ServerStep:    0.5,
			Seed:          25,
		},
		Scheme: core.SchemeConfig{
			NumVehicles: vehicles, NumBatches: 8, Degree: 1, Seed: 26,
			Workers: workers,
		},
		RefX:             refX,
		ActivationCoeffs: p,
		Rounds:           rounds,
		RoundTimeout:     10 * time.Second,
		Obs:              o,
	})
	if err != nil {
		t.Fatal(err)
	}
	var plan *adversary.Plan
	if maliciousFrac > 0 {
		plan, err = adversary.NewPlan(vehicles, maliciousFrac, adversary.ConstantLie{Value: 5}, 27)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := &session{server: server, test: test}
	for i := 0; i < vehicles; i++ {
		server_side, vehicle_side := transport.Pipe()
		s.conns = append(s.conns, transport.Instrument(server_side, o, fmt.Sprintf("conn-%d", i)))
		s.vconns = append(s.vconns, vehicle_side)
		cc := ClientConfig{VehicleID: i, Data: parts[i], Seed: int64(100 + i)}
		if plan != nil && plan.IsMalicious(i) {
			cc.Corrupt = adversary.ConstantLie{Value: 5}
		}
		s.clients = append(s.clients, cc)
	}
	return s
}

// reconfigure rebuilds the session's server from its config changed by
// mutate — for knobs NewServer resolves once, such as DisablePipeline.
func (s *session) reconfigure(t testing.TB, mutate func(*ServerConfig)) {
	t.Helper()
	cfg := s.server.cfg
	mutate(&cfg)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.server = srv
}

// run executes the whole session and returns the server report.
func (s *session) run(t *testing.T) *Report {
	t.Helper()
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

func TestDistributedHonestSession(t *testing.T) {
	s := buildSession(t, 20, 10, 0)
	report := s.run(t)
	if report.Rounds != 10 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("honest session flagged %v", report.SuspectedMalicious)
	}
	if report.Stragglers != 0 {
		t.Errorf("stragglers = %d", report.Stragglers)
	}
	acc, err := fl.ModelAccuracy(s.server.Shared(), s.test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("distributed session accuracy %g — not learning", acc)
	}
}

func TestDistributedMaliciousSession(t *testing.T) {
	s := buildSession(t, 20, 4, 0.25) // 5 malicious, budget (20-8)/2 = 6
	report := s.run(t)
	if report.Rounds != 4 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	flagged := map[int]bool{}
	for _, id := range report.SuspectedMalicious {
		flagged[id] = true
	}
	want := 0
	for i := range s.clients {
		if s.clients[i].Corrupt != nil {
			want++
			if !flagged[i] {
				t.Errorf("malicious vehicle %d not flagged", i)
			}
		}
	}
	if len(flagged) != want {
		t.Errorf("flagged %d vehicles, want %d", len(flagged), want)
	}
}

func TestDistributedOverTCP(t *testing.T) {
	s := buildSession(t, 10, 3, 0)
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Replace the pipes with real TCP connections.
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
		conn, err := transport.DialTCP(l.Addr())
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
	if report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
}

func TestServerValidation(t *testing.T) {
	refX := make([][]float64, 8)
	for i := range refX {
		refX[i] = make([]float64, traffic.NumFeatures)
	}
	base := ServerConfig{
		FL:               fl.Config{InputSize: traffic.NumFeatures, LocalEpochs: 1, LocalRate: 0.1, DistillEpochs: 1, DistillRate: 0.1},
		Scheme:           core.SchemeConfig{NumVehicles: 10, NumBatches: 8, Degree: 1},
		RefX:             refX,
		ActivationCoeffs: []float64{0, 0.5},
		Rounds:           1,
	}
	cfg := base
	cfg.Rounds = 0
	if _, err := NewServer(cfg); err == nil {
		t.Error("zero rounds accepted")
	}
	cfg = base
	cfg.ActivationCoeffs = nil
	if _, err := NewServer(cfg); err == nil {
		t.Error("missing activation accepted")
	}
	// Invalid learning knobs would strand every vehicle on its first
	// broadcast and time out every round; NewServer must refuse them.
	for name, mutate := range map[string]func(*fl.Config){
		"zero local rate":   func(c *fl.Config) { c.LocalRate = 0 },
		"zero local epochs": func(c *fl.Config) { c.LocalEpochs = 0 },
		"server step 3":     func(c *fl.Config) { c.ServerStep = 3 },
	} {
		cfg = base
		mutate(&cfg.FL)
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	srv, err := NewServer(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(nil); err == nil {
		t.Error("wrong connection count accepted")
	}
}

func TestRunVehicleValidation(t *testing.T) {
	a, _ := transport.Pipe()
	if err := RunVehicle(a, ClientConfig{VehicleID: 0}); err == nil {
		t.Error("vehicle with no data accepted")
	}
	_ = nn.Sample{}
}

// silentVehicle handshakes and then never uploads — a permanent straggler.
func silentVehicle(t *testing.T, conn transport.Conn, id int) {
	t.Helper()
	if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: id}}); err != nil {
		t.Errorf("silent vehicle hello: %v", err)
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if m.Finished != nil {
			return
		}
		// Swallow Setup and Broadcasts without ever answering.
	}
}

func TestDistributedStragglerTimeout(t *testing.T) {
	s := buildSession(t, 20, 3, 0)
	// Shorten the timeout so the silent vehicle doesn't stall the test —
	// but not below what a loaded 1-core -race run needs for the honest
	// uploads, or they'd be miscounted as stragglers too.
	s.server.cfg.RoundTimeout = time.Second

	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == 5 {
			go func(i int) {
				defer wg.Done()
				silentVehicle(t, s.vconns[i], i)
			}(i)
			continue
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 3 {
		t.Errorf("rounds = %d", report.Rounds)
	}
	// The silent vehicle is a straggler every round; the coded
	// aggregation must not flag it as malicious (absence is not a lie).
	if report.Stragglers != 3 {
		t.Errorf("stragglers = %d, want 3", report.Stragglers)
	}
	if len(report.SuspectedMalicious) != 0 {
		t.Errorf("straggler flagged as malicious: %v", report.SuspectedMalicious)
	}
	// Unblock the silent vehicle's Recv loop.
	for i := range s.conns {
		s.conns[i].Close()
	}
	wg.Wait()
}

func TestDistributedVehicleCrashMidSession(t *testing.T) {
	s := buildSession(t, 20, 3, 0)
	s.server.cfg.RoundTimeout = 300 * time.Millisecond
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == 7 {
			// Crashes after the handshake + first broadcast.
			go func(i int) {
				defer wg.Done()
				conn := s.vconns[i]
				if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: i}}); err != nil {
					t.Errorf("crasher hello: %v", err)
					return
				}
				if _, err := conn.Recv(); err != nil { // Setup
					return
				}
				if _, err := conn.Recv(); err != nil { // Broadcast round 1
					return
				}
				conn.Close()
			}(i)
			continue
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if report.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 despite the crashed vehicle", report.Rounds)
	}
}

// TestMalformedUploadIsErasure: a vehicle that sends a one-element
// upload every round no longer aborts the session. Each malformed upload
// is dropped as an erasure and its sender flagged, so the session ends
// bit-identical to the same session with that vehicle as a ConstantLie
// liar: in both, Aggregate averages the same verified set in the same
// order.
func TestMalformedUploadIsErasure(t *testing.T) {
	const vehicles, rounds, bad = 12, 3, 5
	s := buildSession(t, vehicles, rounds, 0)
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		if i == bad {
			go func(conn transport.Conn) {
				defer wg.Done()
				if err := conn.Send(&protocol.Message{Hello: &protocol.Hello{Version: protocol.Version, VehicleID: bad}}); err != nil {
					t.Errorf("malformed vehicle hello: %v", err)
					return
				}
				for {
					m, err := conn.Recv()
					if err != nil || m.Finished != nil {
						return
					}
					if m.Broadcast == nil {
						continue
					}
					up := &protocol.Upload{Round: m.Broadcast.Round, VehicleID: bad, Values: []float64{1}}
					if err := conn.Send(&protocol.Message{Upload: up}); err != nil {
						return
					}
				}
			}(s.vconns[i])
			continue
		}
		go func(i int) {
			defer wg.Done()
			if err := RunVehicle(s.vconns[i], s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatalf("malformed upload aborted the session: %v", err)
	}
	wg.Wait()
	if report.Rounds != rounds || report.Stragglers != 0 || report.DegradedRounds != 0 {
		t.Fatalf("session report = %+v", report)
	}
	if len(report.SuspectedMalicious) != 1 || report.SuspectedMalicious[0] != bad {
		t.Fatalf("suspected = %v, want [%d]", report.SuspectedMalicious, bad)
	}

	liar := buildSession(t, vehicles, rounds, 0)
	liar.clients[bad].Corrupt = adversary.ConstantLie{Value: 5}
	liarReport := liar.run(t)
	if len(liarReport.SuspectedMalicious) != 1 || liarReport.SuspectedMalicious[0] != bad {
		t.Fatalf("liar session suspected = %v, want [%d]", liarReport.SuspectedMalicious, bad)
	}
	if !sameBits(report.FinalParams, liarReport.FinalParams) {
		t.Fatal("malformed-upload session differs from the liar session")
	}
}
