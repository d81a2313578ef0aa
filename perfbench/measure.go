package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// tally counts attempted and failed rounds and failed run-level checks.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`
}

// count records one attempted round and whether it passed its checks.
func (t *tally) count(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

func (t *tally) fail(format string, args ...any) {
	t.Problems = append(t.Problems, fmt.Sprintf(format, args...))
}

// checkSession counts a session's rounds; an unhealthy session fails all
// of them.
func (t *tally) checkSession(res *sessionResult, rounds int) {
	ok := res.healthy(rounds)
	if !ok {
		t.fail("session report %+v", *res.report)
	}
	for r := 0; r < rounds; r++ {
		t.count(ok)
	}
}

// measurement is what one run found.
type measurement struct {
	tally
	values map[string]float64
	notes  []string // sample counts and other context
}

// workerProcs is how many measuring processes one end-to-end run is
// split into, one after another, so that no single process's heap layout
// or GC pacing sets a run's figures.
const workerProcs = 6

// minSessions is the fewest timed sessions one measuring process makes.
const minSessions = 2

// warmupRounds is the length of the untimed session that opens every
// measuring process, so lazy runtime set-up (heap growth, pools, page
// faults) is paid before the first timed session.
const warmupRounds = 10

// workerReport is what one measuring process hands back: one entry per
// timed session in each per-session slice, plus totals.
type workerReport struct {
	P50      []float64 `json:"p50_ms"`    // each session's median round
	P90      []float64 `json:"p90_ms"`    // each session's 90th-percentile round
	Rate     []float64 `json:"rate"`      // each session's rounds ÷ round-loop time
	SetupS   []float64 `json:"setup_s"`   // each session's set-up time
	Rounds   int       `json:"rounds"`    // timed rounds, all sessions
	Objects  uint64    `json:"objects"`   // heap objects allocated by them
	Bytes    uint64    `json:"bytes"`     // heap bytes allocated by them
	LiveHeap uint64    `json:"live_heap"` // live bytes after the first timed session
	Params   uint64    `json:"params"`    // paramsHash of the final parameters
	Idle     []float64 `json:"idle"`      // each session's median round wall ÷ CPU time
	tally
}

// session records one timed session; every session must end with the
// same final parameters.
func (r *workerReport) session(setup time.Duration, rounds []time.Duration, objects, bytes, params uint64) {
	roundMs := make([]float64, len(rounds))
	var loop time.Duration
	for i, d := range rounds {
		roundMs[i] = ms(d)
		loop += d
	}
	r.P50 = append(r.P50, quantile(roundMs, 0.5))
	r.P90 = append(r.P90, quantile(roundMs, 0.9))
	r.Rate = append(r.Rate, float64(len(rounds))/loop.Seconds())
	r.SetupS = append(r.SetupS, setup.Seconds())
	r.Rounds += len(rounds)
	r.Objects += objects
	r.Bytes += bytes
	if len(r.SetupS) == 1 {
		r.Params = params
	} else if params != r.Params {
		r.fail("session %d ended with different final params", len(r.SetupS))
	}
}

// usualQuantile is the quantile over sessions that a run reports for the
// round times (its mirror, 1−usualQuantile, for the rate). Even on the CPU
// clock the reference host (2 vCPUs shared with other tenants) runs a
// paper-fleet round at two speeds about a third apart, in stretches of
// seconds to minutes: its usual speed, which every run meets, and a faster
// one whose share of a run's sessions ranged from 2% to 87%. A median or a
// mean over sessions follows that share; the 90th percentile stays on the
// usual speed while at least a tenth of the sessions ran at it. A program
// change moves every session, and the percentile with them.
const usualQuantile = 0.9

// measureEndToEnd runs workerProcs measuring processes of this binary one
// after another and pools their sessions. Each timed session is one
// sample: its round-time median and 90th percentile, its round rate and
// its set-up time, all on the process CPU clock (see timeInproc). The run
// reports usualQuantile over sessions of the round times and rate, and the
// median set-up time. Afterwards it checks the workload against
// experiments.Scenario.Run. os.Args[0] is this binary (run.sh starts it by
// its path in the checkout).
func measureEndToEnd(w workload, seed int64, seconds float64) (*measurement, error) {
	exe := os.Args[0]
	m := &measurement{}
	var all workerReport
	var liveHeap, procP50 []float64
	for k := 0; k < workerProcs; k++ {
		cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds/workerProcs, 'g', -1, 64), "--worker")
		cmd.Stderr = os.Stderr
		// A measuring process dies with this one, so a killed run leaves
		// nothing behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		var r workerReport
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		if k > 0 && r.Params != all.Params {
			m.fail("measuring process %d ended with different final params", k)
		}
		all.Params = r.Params
		all.P50 = append(all.P50, r.P50...)
		all.P90 = append(all.P90, r.P90...)
		all.Rate = append(all.Rate, r.Rate...)
		all.SetupS = append(all.SetupS, r.SetupS...)
		all.Idle = append(all.Idle, r.Idle...)
		all.Rounds += r.Rounds
		all.Objects += r.Objects
		all.Bytes += r.Bytes
		liveHeap = append(liveHeap, float64(r.LiveHeap))
		procP50 = append(procP50, quantile(r.P50, 0.5))
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.Problems = append(m.Problems, r.Problems...)
	}
	n := float64(all.Rounds)
	m.values = map[string]float64{
		"round_ms_p50":        quantile(all.P50, usualQuantile),
		"round_ms_p90":        quantile(all.P90, usualQuantile),
		"rounds_per_s":        quantile(all.Rate, 1-usualQuantile),
		"setup_s":             quantile(all.SetupS, 0.5),
		"allocs_per_round":    float64(all.Objects) / n,
		"alloc_mib_per_round": float64(all.Bytes) / n / (1 << 20),
		"heap_live_mib":       quantile(liveHeap, 0.5) / (1 << 20),
	}
	m.notes = append(m.notes, fmt.Sprintf("%d sessions, %d timed rounds; session p50 %.3f..%.3f ms, p90 %.3f..%.3f ms; p50 by process %.3f ms",
		len(all.SetupS), all.Rounds, quantile(all.P50, 0), quantile(all.P50, 1), quantile(all.P90, 0), quantile(all.P90, 1), procP50))
	m.notes = append(m.notes, fmt.Sprintf("round wall ÷ CPU time, median per session: %.3f..%.3f", quantile(all.Idle, 0), quantile(all.Idle, 1)))
	if least := quantile(all.Idle, 0); least > maxIdleRatio {
		m.fail("every session's median round spent %.2f× its CPU time on the wall clock; the CPU clock no longer times the round", least)
	}
	if err := checkFidelity(w, seed, m); err != nil {
		return nil, err
	}
	return m, nil
}

// maxIdleRatio bounds how much longer than its CPU time a round may take
// on the wall clock, as the median over a session's rounds, in the least
// disturbed session. Rounds are timed on the process CPU clock, which
// stands for a dedicated core's wall clock only while the round never
// waits; a round that sleeps or blocks would read faster than it is, so a
// run where every session's median round idles this much fails instead.
// Host steal alone stays well below it in the least disturbed session.
const maxIdleRatio = 2

// timeInproc is one measuring process on the in-process path: set up,
// run the session's rounds through the bare core.Scheme at the
// workload's worker count, repeat until the deadline. The caller runs it
// with one P, and set-up and rounds are timed on the process CPU clock:
// the shared host steals vCPU time in bursts that stretch whole minutes
// of wall-clock rounds, and the CPU clock leaves that time out.
func timeInproc(w workload, seed int64, deadline time.Time) (*workerReport, error) {
	r := &workerReport{}
	heap := newHeapCounter()
	var took time.Duration // the last session, to stop before overrunning
	for rep := -1; rep < minSessions || time.Now().Add(took).Before(deadline); rep++ {
		start, cpuStart := time.Now(), processCPU()
		ip, err := newInproc(w.Shape, seed, w.Workers)
		if err != nil {
			return nil, err
		}
		setup := processCPU() - cpuStart
		rounds := make([]time.Duration, w.Rounds)
		if rep < 0 {
			rounds = rounds[:min(w.Rounds, warmupRounds)]
		}
		idle := make([]float64, len(rounds))
		o0, b0 := heap.read()
		for k := range rounds {
			rs, cs := time.Now(), processCPU()
			ok, err := ip.round(ip.coded)
			rounds[k] = processCPU() - cs
			idle[k] = float64(time.Since(rs)) / float64(rounds[k])
			r.count(ok)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", k+1, err)
			}
		}
		o1, b1 := heap.read()
		took = time.Since(start)
		if rep < 0 {
			continue
		}
		r.Idle = append(r.Idle, quantile(idle, 0.5))
		r.session(setup, rounds, o1-o0, b1-b0, paramsHash(ip.sys.Shared().Params()))
		if rep == 0 {
			r.LiveHeap = liveHeapBytes()
			runtime.KeepAlive(ip)
		}
	}
	return r, nil
}

// checkFidelity runs a few rounds of the benchmark's in-process composition at
// Workers=1 and experiments.Scenario.Run(LCoFL) at Workers=2 with the
// same fields; their final test estimates must agree bit for bit.
func checkFidelity(w workload, seed int64, m *measurement) error {
	const rounds = 3
	sh := w.Shape
	want, err := experiments.Scenario{
		Vehicles: sh.Vehicles, Rounds: rounds, Rows: sh.Rows, RefRows: sh.RefRows, Batches: sh.Batches,
		Degree: sh.Degree, MaliciousFraction: sh.Malicious, LocalEpochs: sh.LocalEpochs,
		Seed: seed, Workers: 2,
	}.Run(experiments.LCoFL)
	if err != nil {
		return fmt.Errorf("fidelity scenario: %w", err)
	}
	ip, err := newInproc(sh, seed, 1)
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		ok, err := ip.round(ip.coded)
		m.count(ok)
		if err != nil {
			return fmt.Errorf("fidelity round %d: %w", r+1, err)
		}
	}
	got, err := ip.testEstimates()
	if err != nil {
		return err
	}
	if n := bitMismatches(got, want.TestEstimates); n != 0 {
		m.fail("benchmark composition and Scenario.Run disagree on %d of %d test estimates", n, len(want.TestEstimates))
	}
	return nil
}

// bitMismatches counts positions where a and b differ bit for bit; a
// length difference counts as max(len) mismatches.
func bitMismatches(a, b []float64) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			n++
		}
	}
	return n
}
