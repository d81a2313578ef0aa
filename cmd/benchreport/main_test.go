package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncodeVectorsWorkers/workers=1-8         	     100	    643345 ns/op	  262144 B/op	     120 allocs/op
BenchmarkEncodeVectorsWorkers/workers=4-8         	     100	    180000 ns/op	  262144 B/op	     130 allocs/op
BenchmarkDecodeBatch/slots=32/mode=batch-8        	     310	   3747009 ns/op	  198784 B/op	     857 allocs/op
BenchmarkDecodeBatch/slots=32/mode=perslot        	      15	  75091930 ns/op	 3802885 B/op	   16608 allocs/op
PASS
`

func parseSample(t *testing.T, text string) *Report {
	t.Helper()
	return parseSampleOpts(t, text, parseOpts{})
}

func parseSampleOpts(t *testing.T, text string, opts parseOpts) *Report {
	t.Helper()
	rep, err := parse(strings.Split(text, "\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseRecordsEveryEntry(t *testing.T) {
	rep := parseSample(t, sampleOutput)
	if rep.CPU == "" {
		t.Error("cpu line not captured")
	}
	want := map[string]float64{
		"EncodeVectorsWorkers/workers=1":    643345,
		"EncodeVectorsWorkers/workers=4":    180000,
		"DecodeBatch/slots=32/mode=batch":   3747009,
		"DecodeBatch/slots=32/mode=perslot": 75091930,
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(rep.Entries), len(want), rep.Entries)
	}
	for _, e := range rep.Entries {
		ns, ok := want[e.Name]
		if !ok {
			t.Errorf("unexpected entry %q (GOMAXPROCS suffix not stripped?)", e.Name)
			continue
		}
		if e.NsPerOp != ns {
			t.Errorf("%s: ns/op = %g, want %g", e.Name, e.NsPerOp, ns)
		}
	}
	// Alloc columns parse when present.
	for _, e := range rep.Entries {
		if e.Name == "DecodeBatch/slots=32/mode=batch" && (e.BytesPerOp != 198784 || e.AllocsPerOp != 857) {
			t.Errorf("alloc columns = %d B/op %d allocs/op", e.BytesPerOp, e.AllocsPerOp)
		}
	}
}

func TestParseWorkersSweepSpeedups(t *testing.T) {
	rep := parseSample(t, sampleOutput)
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d workers-sweep benchmarks, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "EncodeVectorsWorkers" {
		t.Fatalf("sweep name = %q", b.Name)
	}
	if s := b.Speedups["workers=4"]; s < 3.5 || s > 3.6 {
		t.Errorf("speedup at 4 workers = %g, want ~3.574", s)
	}
}

func TestParseNoSweepStillSucceeds(t *testing.T) {
	// A suite without workers= sub-benchmarks (the batch-decode suite)
	// must produce a valid entries-only report.
	rep := parseSample(t, "BenchmarkDotAcc/n=100/kernel=dotacc-8  100  140 ns/op\n")
	if len(rep.Entries) != 1 || len(rep.Benchmarks) != 0 {
		t.Fatalf("entries=%d benchmarks=%d", len(rep.Entries), len(rep.Benchmarks))
	}
}

func TestParseNoBenchLinesFails(t *testing.T) {
	if _, err := parse([]string{"PASS", "ok  repro  1.2s"}, parseOpts{}); err == nil {
		t.Fatal("no benchmark lines accepted")
	}
}

// TestTargetMetOnlyOnMultiCore pins the no-silent-false contract: on a
// single-core host target_met is absent from the JSON entirely; with
// cores the verdict appears, judged against the host-scaled target.
func TestTargetMetOnlyOnMultiCore(t *testing.T) {
	single := parseSampleOpts(t, sampleOutput, parseOpts{cores: 1})
	if single.TargetMet != nil {
		t.Errorf("1-core host emitted target_met = %v, want omitted", *single.TargetMet)
	}
	if single.MaxSpeedup < 3.5 {
		t.Errorf("max speedup %g not recorded on 1-core host", single.MaxSpeedup)
	}
	if single.Note == "" {
		t.Error("1-core host report carries no interpretation note")
	}

	quad := parseSampleOpts(t, sampleOutput, parseOpts{cores: 4})
	if quad.TargetMet == nil || !*quad.TargetMet {
		t.Fatalf("4-core host with 3.57x speedup: target_met = %v, want true", quad.TargetMet)
	}
	if quad.EffectiveTarget != 2.0 {
		t.Errorf("effective target = %g, want 2.0 (4 cores, 4 workers)", quad.EffectiveTarget)
	}

	// Two cores cannot show 2x: the bar scales to 0.75*2 = 1.5.
	dual := parseSampleOpts(t, sampleOutput, parseOpts{cores: 2})
	if dual.EffectiveTarget != 1.5 {
		t.Errorf("effective target on 2 cores = %g, want 1.5", dual.EffectiveTarget)
	}
}

// TestOldBaselineWithBoolTargetMetParses guards -compare against reports
// written before target_met became optional.
func TestOldBaselineWithBoolTargetMetParses(t *testing.T) {
	var rep Report
	old := `{"goos":"linux","cores":1,"entries":[{"name":"A","iterations":1,"ns_per_op":10}],"target_speedup":2,"target_met":false}`
	if err := json.Unmarshal([]byte(old), &rep); err != nil {
		t.Fatalf("old baseline rejected: %v", err)
	}
	if rep.TargetMet == nil || *rep.TargetMet {
		t.Fatalf("target_met = %v, want false", rep.TargetMet)
	}
}

func TestComputeRatios(t *testing.T) {
	rep := parseSample(t, strings.Join([]string{
		"BenchmarkDecodeBatch/slots=32/mode=batch-8    310  1000 ns/op",
		"BenchmarkDecodeBatch/slots=32/mode=perslot-8   15  8000 ns/op",
		"BenchmarkDecodeBatch/slots=8/mode=batch-8     310  1000 ns/op",
		"BenchmarkDecodeBatch/slots=8/mode=perslot-8    15  3000 ns/op",
		"BenchmarkWireCodec/params=1000/enc=json-8     100  9000 ns/op",
		"BenchmarkWireCodec/params=1000/enc=binary-8   100  1000 ns/op",
		"BenchmarkRoundPipelined-8                      10  2000 ns/op",
		"BenchmarkRoundLockstep-8                       10  8000 ns/op",
		"BenchmarkFleetFanIn/mode=relay-8               10  6000 ns/op",
		"BenchmarkFleetFanIn/mode=gather-8              10  5000 ns/op",
	}, "\n"))
	// Minimum across pairs: slots=8 gives 3x, slots=32 gives 8x.
	if r := rep.Ratios["batch_vs_perslot"]; r != 3 {
		t.Errorf("batch_vs_perslot = %g, want 3 (conservative pair)", r)
	}
	if r := rep.Ratios["pipelined_vs_lockstep"]; r != 4 {
		t.Errorf("pipelined_vs_lockstep = %g, want 4", r)
	}
	// The wire-codec and gather pairs measured code paths that no longer
	// exist; their old entries must not resurrect the retired ratios.
	for _, name := range []string{"binary_vs_json", "fleet_gather_vs_relay", "nonexistent"} {
		if _, ok := rep.Ratios[name]; ok {
			t.Errorf("phantom ratio %s derived", name)
		}
	}
}

// TestMatrixModeKeepsProcs pins -procs: the same benchmark at different
// GOMAXPROCS stays distinct, workers sweeps group per procs setting, and
// a suffix-less line (GOMAXPROCS=1) lands under procs=1.
func TestMatrixModeKeepsProcs(t *testing.T) {
	rep := parseSampleOpts(t, strings.Join([]string{
		"BenchmarkFig3VehiclesWorkers/workers=1  3  9000 ns/op",
		"BenchmarkFig3VehiclesWorkers/workers=4  3  8500 ns/op",
		"BenchmarkFig3VehiclesWorkers/workers=1-4  3  9000 ns/op",
		"BenchmarkFig3VehiclesWorkers/workers=4-4  3  3000 ns/op",
	}, "\n"), parseOpts{procsSuffix: true, cores: 4})
	names := map[string]bool{}
	for _, e := range rep.Entries {
		names[e.Name] = true
	}
	for _, want := range []string{
		"Fig3VehiclesWorkers/workers=1/procs=1",
		"Fig3VehiclesWorkers/workers=4/procs=4",
	} {
		if !names[want] {
			t.Errorf("entry %q missing: have %v", want, names)
		}
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d sweep groups, want 2 (one per procs): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// The procs=4 group shows 3x; procs=1 shows ~1x. The headline ratio
	// must come from the parallel run, not be averaged away.
	if rep.MaxSpeedup != 3 {
		t.Errorf("max speedup = %g, want 3", rep.MaxSpeedup)
	}
	if rep.TargetMet == nil || !*rep.TargetMet {
		t.Errorf("target_met = %v, want true at 3x on 4 cores", rep.TargetMet)
	}
}

func TestParseRepeatedNamesKeepMedian(t *testing.T) {
	rep := parseSample(t, strings.Join([]string{
		"BenchmarkX/a=1-8  100  500 ns/op  64 B/op  3 allocs/op",
		"BenchmarkX/a=1-8  100  400 ns/op  96 B/op  1 allocs/op",
		"BenchmarkX/a=1-8  100  900 ns/op  80 B/op  2 allocs/op",
		"BenchmarkY/workers=1-8  3  300 ns/op",
		"BenchmarkY/workers=2-8  3  200 ns/op",
		"BenchmarkY/workers=1-8  3  100 ns/op",
		"BenchmarkY/workers=2-8  3  900 ns/op",
		"BenchmarkY/workers=1-8  3  200 ns/op",
		"BenchmarkY/workers=2-8  3  100 ns/op",
	}, "\n"))
	if len(rep.Entries) != 3 {
		t.Fatalf("entries = %+v, want X and Y's two workers counts", rep.Entries)
	}
	if e := rep.Entries[0]; e.NsPerOp != 500 || e.BytesPerOp != 80 || e.AllocsPerOp != 2 || e.Samples != 3 {
		t.Errorf("X = %+v, want medians 500 ns/op, 80 B/op, 2 allocs/op over 3 samples", e)
	}
	if len(rep.Benchmarks) != 1 || len(rep.Benchmarks[0].Runs) != 2 {
		t.Fatalf("benchmarks = %+v, want one sweep with two runs", rep.Benchmarks)
	}
	for _, r := range rep.Benchmarks[0].Runs {
		if r.NsPerOp != 200 || r.Samples != 3 {
			t.Errorf("Y workers=%d = %+v, want median 200 ns/op over 3 samples", r.Workers, r)
		}
	}
	if s := rep.Benchmarks[0].Speedups["workers=2"]; s != 1 {
		t.Errorf("workers=2 speedup = %g, want 1 from the medians", s)
	}
}

func TestCompareReports(t *testing.T) {
	oldRep := &Report{Entries: []Entry{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
		{Name: "Retired", NsPerOp: 1000},
	}}
	newRep := &Report{Entries: []Entry{
		{Name: "A", NsPerOp: 1190}, // +19%: inside tolerance
		{Name: "B", NsPerOp: 1300}, // +30%: regression
		{Name: "Fresh", NsPerOp: 5000},
	}}
	regs := compareReports(oldRep, newRep, 0.20)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if regs[0].Name != "B" || regs[0].Fraction < 0.29 || regs[0].Fraction > 0.31 {
		t.Fatalf("regression = %+v", regs[0])
	}
	// Faster is never a regression; looser tolerance passes everything.
	if regs := compareReports(oldRep, newRep, 0.50); len(regs) != 0 {
		t.Fatalf("50%% tolerance flagged %+v", regs)
	}
}

func TestCompareIgnoresZeroBaseline(t *testing.T) {
	oldRep := &Report{Entries: []Entry{{Name: "A", NsPerOp: 0}}}
	newRep := &Report{Entries: []Entry{{Name: "A", NsPerOp: 100}}}
	if regs := compareReports(oldRep, newRep, 0.2); len(regs) != 0 {
		t.Fatalf("zero baseline flagged %+v", regs)
	}
}
