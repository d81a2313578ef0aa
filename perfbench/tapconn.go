package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// tapEvent is one message seen by a tapped pipe end.
type tapEvent struct {
	kind  byte // 'b' broadcast, 'u' upload, 'f' finished
	send  bool
	round int
	at    time.Duration // since the session's epoch: Send entry or Recv return
	dur   time.Duration // time inside Send
	bytes int           // encoded size at the negotiated revision (sends only)
}

// tapConn is a pass-through transport.Conn that logs every round message
// crossing one pipe end. It forwards only Send, Recv and Close, so it
// hides the pipe's optional faces (SetPeer, Flusher, Pender,
// WireVersioner, Faulter); the traced session's Report must still equal
// the bare session's, which proves them unused on bare pipes. Sizes are
// computed with protocol.EncodedSizeVersion at the revision the end
// negotiated (read from the Setup it sends or receives): pipes pass
// pointers, so this is what TCP would carry.
type tapConn struct {
	inner transport.Conn
	epoch time.Time

	mu      sync.Mutex
	version int        // guarded by mu
	events  []tapEvent // guarded by mu
}

// Send implements transport.Conn.
func (c *tapConn) Send(m *protocol.Message) error {
	start := time.Now()
	err := c.inner.Send(m)
	dur := time.Since(start)
	if err == nil {
		c.record(m, true, start, dur)
	}
	return err
}

// Recv implements transport.Conn.
func (c *tapConn) Recv() (*protocol.Message, error) {
	m, err := c.inner.Recv()
	if err == nil {
		c.record(m, false, time.Now(), 0)
	}
	return m, err
}

// Close implements transport.Conn.
func (c *tapConn) Close() error { return c.inner.Close() }

func (c *tapConn) record(m *protocol.Message, send bool, at time.Time, dur time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := tapEvent{send: send, at: at.Sub(c.epoch), dur: dur}
	switch {
	case m.Setup != nil:
		c.version = m.Setup.WireVersion
		return
	case m.Broadcast != nil:
		ev.kind, ev.round = 'b', m.Broadcast.Round
	case m.Upload != nil:
		ev.kind, ev.round = 'u', m.Upload.Round
	case m.Finished != nil:
		ev.kind = 'f'
	default:
		return
	}
	if send && ev.kind != 'f' {
		ev.bytes = protocol.EncodedSizeVersion(m, c.version)
	}
	c.events = append(c.events, ev)
}

// snapshot returns a copy of the events logged so far.
func (c *tapConn) snapshot() []tapEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tapEvent(nil), c.events...)
}

// sessionLayers are the per-round node, transport and protocol figures of
// one traced session, over rounds 2..R (round 1 is the warm-up).
type sessionLayers struct {
	rounds                   int
	handshake                time.Duration
	round, collect, fusion   time.Duration // sums over rounds
	transit, send            time.Duration // sums over every upload / round-message send
	uploads                  int
	compute                  []float64 // ms, one per (vehicle, round)
	computeMax               float64   // sum over rounds of the slowest vehicle, ms
	msgs, upBytes, downBytes int
}

// layers attributes a tapped session's rounds. A round runs from the
// first broadcast of round r to the first broadcast of round r+1 (or
// Finished); node.collect is its first broadcast to its last upload
// received, node.fusion the rest, so the two add up to the round.
func (r *sessionResult) layers(rounds int) (*sessionLayers, error) {
	if len(r.server) == 0 {
		return nil, fmt.Errorf("session was not tapped")
	}
	const unset = time.Duration(-1)
	v := len(r.server)
	firstB := make([]time.Duration, rounds+2)
	lastU := make([]time.Duration, rounds+1)
	for k := range firstB {
		firstB[k] = unset
	}
	for k := range lastU {
		lastU[k] = unset
	}
	// Per vehicle and round: vehicle-side broadcast receipt and upload
	// send, fusion-side upload receipt.
	bRecv := make([][]time.Duration, v)
	uSend := make([][]time.Duration, v)
	uRecv := make([][]time.Duration, v)
	out := &sessionLayers{rounds: rounds - 1}
	inLoop := func(round int) bool { return round >= 2 && round <= rounds }
	for i := 0; i < v; i++ {
		bRecv[i] = make([]time.Duration, rounds+1)
		uSend[i] = make([]time.Duration, rounds+1)
		uRecv[i] = make([]time.Duration, rounds+1)
		for _, ev := range r.server[i].snapshot() {
			switch {
			case ev.kind == 'b' && ev.send && ev.round <= rounds:
				if firstB[ev.round] == unset || ev.at < firstB[ev.round] {
					firstB[ev.round] = ev.at
				}
				if inLoop(ev.round) {
					out.send += ev.dur
					out.msgs++
					out.downBytes += ev.bytes
				}
			case ev.kind == 'f' && ev.send:
				if firstB[rounds+1] == unset || ev.at < firstB[rounds+1] {
					firstB[rounds+1] = ev.at
				}
			case ev.kind == 'u' && !ev.send && ev.round <= rounds:
				uRecv[i][ev.round] = ev.at
				if ev.at > lastU[ev.round] {
					lastU[ev.round] = ev.at
				}
			}
		}
		for _, ev := range r.vehicle[i].snapshot() {
			switch {
			case ev.kind == 'b' && !ev.send && ev.round <= rounds:
				bRecv[i][ev.round] = ev.at
			case ev.kind == 'u' && ev.send && ev.round <= rounds:
				uSend[i][ev.round] = ev.at
				if inLoop(ev.round) {
					out.send += ev.dur
					out.msgs++
					out.upBytes += ev.bytes
				}
			}
		}
	}
	if firstB[1] == unset {
		return nil, fmt.Errorf("no round-1 broadcast seen")
	}
	out.handshake = r.start.Add(firstB[1]).Sub(r.runStart)
	for round := 2; round <= rounds; round++ {
		if firstB[round] == unset || firstB[round+1] == unset || lastU[round] == unset {
			return nil, fmt.Errorf("round %d boundaries missing", round)
		}
		out.round += firstB[round+1] - firstB[round]
		out.collect += lastU[round] - firstB[round]
		out.fusion += firstB[round+1] - lastU[round]
		slowest := 0.0
		for i := 0; i < v; i++ {
			c := ms(uSend[i][round] - bRecv[i][round])
			out.compute = append(out.compute, c)
			if c > slowest {
				slowest = c
			}
			out.transit += uRecv[i][round] - uSend[i][round]
			out.uploads++
		}
		out.computeMax += slowest
	}
	return out, nil
}
