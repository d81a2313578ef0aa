package node

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// pipelineCase is one cell of the chaos axis of the bit-identity matrix.
type pipelineCase struct {
	name    string
	spec    string
	retry   map[int]bool  // vehicles running under RunVehicleRetry
	timeout time.Duration // round timeout override (0 = session default)
}

// runPipelineSession executes one chaos session and returns its report.
// lockstep selects the legacy engine.
func runPipelineSession(t *testing.T, vehicles, rounds, workers int, lockstep bool, tc pipelineCase) *Report {
	t.Helper()
	s := buildSessionFull(t, vehicles, rounds, 0, nil, workers)
	s.reconfigure(t, func(c *ServerConfig) { c.DisablePipeline = lockstep })
	if tc.timeout > 0 {
		s.server.cfg.RoundTimeout = tc.timeout
	}
	inj := chaos.New(mustChaosSpec(t, tc.spec), chaos.Options{Sleeper: &obs.ManualSleeper{}})
	return chaosRun(t, s, inj, tc.retry)
}

// TestPipelineBitIdentical pins the tentpole invariant: for every
// schedule (chaos spec) and worker count, the pipelined engine produces bit-identical FinalParams — and identical
// recovery counters — to the lock-step engine forced by DisablePipeline.
func TestPipelineBitIdentical(t *testing.T) {
	const vehicles, rounds = 12, 3
	cases := []pipelineCase{
		// One silently dropped upload: a timeout-closed round with a
		// straggler, recovered next round.
		{name: "drop", spec: "seed=3;drop.upload@3=1:max=1", timeout: time.Second},
		// Injected upload delays (recorded, not slept, so schedules stay
		// deterministic) exercise the arrival-order machinery.
		{name: "delay", spec: "seed=4;delay.upload=0.5:10ms"},
		// Corrupt frames with bounded retransmits plus a crash-and-rejoin
		// whose upload is only ever delivered through the rejoin resend.
		{name: "crash", spec: "seed=9;corrupt.upload=0.3:max=1;crash@4=before-upload:2",
			retry: map[int]bool{4: true}},
	}
	for _, tc := range cases {
		base := runPipelineSession(t, vehicles, rounds, 1, true, tc)
		if base.Rounds != rounds {
			t.Fatalf("%s: lock-step rounds = %d", tc.name, base.Rounds)
		}
		for _, workers := range []int{1, 2, 8} {
			rep := runPipelineSession(t, vehicles, rounds, workers, false, tc)
			if !sameBits(rep.FinalParams, base.FinalParams) {
				t.Errorf("%s workers=%d: pipelined FinalParams diverged from lock-step",
					tc.name, workers)
			}
			// chaosRun delivers a crashed conn's failure only after the
			// rejoin replaced it, so RecvErrors is deterministic even
			// for the crash spec.
			if rep.RecvErrors != base.RecvErrors {
				t.Errorf("%s workers=%d: recv errors %d, lock-step %d",
					tc.name, workers, rep.RecvErrors, base.RecvErrors)
			}
			if rep.Rounds != base.Rounds ||
				rep.Stragglers != base.Stragglers ||
				rep.CorruptFrames != base.CorruptFrames ||
				rep.Retransmits != base.Retransmits ||
				rep.Rejoins != base.Rejoins ||
				rep.DegradedRounds != base.DegradedRounds {
				t.Errorf("%s workers=%d: recovery counters diverged:\npipelined %+v\nlock-step %+v",
					tc.name, workers, rep, base)
			}
			if len(rep.SuspectedMalicious) != len(base.SuspectedMalicious) {
				t.Errorf("%s workers=%d: flagged %v, lock-step %v",
					tc.name, workers, rep.SuspectedMalicious, base.SuspectedMalicious)
			}
		}
	}
}

// deferConn holds back every upload until the NEXT broadcast arrives,
// making its vehicle a deterministic straggler: its uploads always land
// one round late (stale), so a budget-closed round's excluded set is a
// fixed pair of vehicles rather than a scheduling race.
type deferConn struct {
	transport.Conn
	pending *protocol.Message
}

func (c *deferConn) Send(m *protocol.Message) error {
	if m.Upload != nil {
		c.pending = m
		return nil
	}
	return c.Conn.Send(m)
}

func (c *deferConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Broadcast != nil && c.pending != nil {
		late := c.pending
		c.pending = nil
		if err := c.Conn.Send(late); err != nil {
			return nil, err
		}
	}
	return m, err
}

// runDeferredSession runs a session where the last two vehicles defer
// every upload one round (deferConn), under the given pipeline knobs.
func runDeferredSession(t *testing.T, vehicles, rounds, workers, waitBudget, window int, o *obs.Obs) *Report {
	t.Helper()
	s := buildSessionFull(t, vehicles, rounds, 0, o, workers)
	s.server.cfg.WaitBudget = waitBudget
	if window > 0 {
		s.server.cfg.PipelineWindow = window
	}
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		conn := s.vconns[i]
		if i >= vehicles-2 {
			conn = &deferConn{Conn: conn}
		}
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			if err := RunVehicle(conn, s.clients[i]); err != nil {
				t.Errorf("vehicle %d: %v", i, err)
			}
		}(i, conn)
	}
	report, err := s.server.Run(s.conns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return report
}

// TestPipelineEarlyClose pins the wait-budget close: with the last two
// vehicles always a round late and WaitBudget=2 (close at K+2 — exactly
// the punctual fleet), every round closes by budget with the same two
// vehicles excluded, so the outcome is deterministic: bit-identical
// FinalParams across worker counts, stragglers = 2 per round, and
// node.early_closes = rounds.
func TestPipelineEarlyClose(t *testing.T) {
	const vehicles, rounds = 12, 3 // K = 8, punctual fleet = 10 = K+2
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	base := runDeferredSession(t, vehicles, rounds, 1, 2, 0, o)
	if got := reg.Counter("node.early_closes").Value(); got != rounds {
		t.Errorf("node.early_closes = %d, want %d", got, rounds)
	}
	if base.Stragglers != 2*rounds {
		t.Errorf("stragglers = %d, want %d", base.Stragglers, 2*rounds)
	}
	if base.DegradedRounds != 0 {
		t.Errorf("degraded rounds = %d", base.DegradedRounds)
	}
	for _, workers := range []int{2, 8} {
		rep := runDeferredSession(t, vehicles, rounds, workers, 2, 0, nil)
		if !sameBits(rep.FinalParams, base.FinalParams) {
			t.Errorf("workers=%d: budget-closed run not deterministic", workers)
		}
		if rep.Stragglers != base.Stragglers {
			t.Errorf("workers=%d: stragglers %d, want %d", workers, rep.Stragglers, base.Stragglers)
		}
	}
}

// TestPipelineWindowWithholding pins the bounded in-flight window: with
// PipelineWindow=1 the two behind vehicles exceed the window after the
// first budget close, their broadcasts are withheld (they are not even
// outstanding, so later rounds close as "all" without waiting), and the
// session still terminates cleanly — Finished reaches the withheld
// vehicles too.
func TestPipelineWindowWithholding(t *testing.T) {
	const vehicles, rounds = 12, 4
	reg := obs.NewRegistry()
	o := obs.New(reg, nil, nil)
	rep := runDeferredSession(t, vehicles, rounds, 1, 2, 1, o)
	if rep.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	// Round 1 closes by budget (the deferring pair still outstanding);
	// from round 2 on they are withheld, so the collect loop drains the
	// punctual fleet and exits naturally — no further early closes.
	if got := reg.Counter("node.early_closes").Value(); got != 1 {
		t.Errorf("node.early_closes = %d, want 1", got)
	}
	if rep.Stragglers != 2*rounds {
		t.Errorf("stragglers = %d, want %d", rep.Stragglers, 2*rounds)
	}
	if rep.DegradedRounds != 0 {
		t.Errorf("degraded rounds = %d", rep.DegradedRounds)
	}
}
