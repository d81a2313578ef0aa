// Command benchreport converts `go test -bench` output into a
// machine-readable JSON report. Every benchmark line is recorded under
// its full sub-benchmark name; benchmarks following the workers-sweep
// convention (sub-benchmarks named workers=N) additionally get per-count
// speedups against workers=1 — the number the parallel execution engine
// is judged by. Repeated samples of one benchmark (go test -count) are
// reduced to their median: ns/op, B/op and allocs/op are each the median
// over the samples, per name and, in a sweep, per workers count.
//
// Usage:
//
//	go test -run NONE -bench AggregateObs -benchtime 3x . | go run ./cmd/benchreport -out BENCH_obs.json
//
// With -compare old.json the freshly parsed report is checked against a
// previously written one: any benchmark whose ns/op grew by more than
// -max-regress (fraction, default 0.20) fails the run with exit code 1,
// making the report a CI regression gate.
//
// With -procs the input is treated as a GOMAXPROCS matrix (several go
// test runs concatenated): each line's trailing -N suffix becomes a
// /procs=N segment of the entry name instead of being stripped, so the
// same benchmark measured at different core budgets stays distinct and
// workers-sweep speedups are grouped per procs setting.
//
// Two further gates make the report a speedup matrix in CI:
//
//   - -require-speedup X fails the run unless some workers sweep reaches
//     the effective target — min(X, 0.75·min(cores, max swept workers)),
//     so the bar scales down to what the host can physically show. On a
//     single-core host the gate is skipped (and target_met is omitted
//     from the JSON rather than emitted as a silent false); the measured
//     max_speedup is still recorded either way.
//   - -min-ratio name=V (repeatable) fails the run unless derived ratio
//     "name" exists and is >= V. Ratios are computed from sibling
//     entries: batch_vs_perslot from /mode=batch vs /mode=perslot pairs
//     and pipelined_vs_lockstep from the RoundPipelined vs RoundLockstep
//     pair, each the minimum (most conservative) across all matched
//     pairs. A requested ratio that cannot be derived is a loud failure,
//     never a skip.
//
// The report deliberately carries the host's core count: on a single-core
// machine the pool degrades to interleaving and speedups hover at 1×, so
// a reader must interpret the ratios against "cores".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Run is one benchmark measurement at a fixed worker count.
type Run struct {
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples,omitempty"`
}

// Bench is one workers-sweep benchmark with its per-count speedups.
type Bench struct {
	Name string `json:"name"`
	Runs []Run  `json:"runs"`
	// Speedups maps "workers=N" to ns(workers=1)/ns(workers=N).
	Speedups map[string]float64 `json:"speedups"`
	// SpeedupAtMaxWorkers is the headline ratio at the largest swept count.
	SpeedupAtMaxWorkers float64 `json:"speedup_at_max_workers"`
}

// Entry is one benchmark measurement under its full sub-benchmark name
// (GOMAXPROCS suffix stripped) — the unit of -compare matching. Samples
// counts the repeated lines its medians were taken over.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples,omitempty"`
}

// Report is the benchmark-report JSON schema.
type Report struct {
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// Cores is runtime.NumCPU() on the measuring host. Wall-clock speedup
	// is bounded by it; ratios near 1 on cores=1 are expected, not a
	// regression of the engine.
	Cores int `json:"cores"`
	// Entries lists every benchmark line, workers-sweep or not.
	Entries    []Entry `json:"entries,omitempty"`
	Benchmarks []Bench `json:"benchmarks,omitempty"`
	// TargetSpeedup is the requested parallel-speedup bar; EffectiveTarget
	// is the bar after scaling to what this host can physically show:
	// min(TargetSpeedup, 0.75·min(cores, max swept workers)).
	TargetSpeedup   float64 `json:"target_speedup"`
	EffectiveTarget float64 `json:"effective_target,omitempty"`
	// MaxSpeedup is the best workers-sweep speedup measured anywhere in
	// the input — always recorded, whatever the core count.
	MaxSpeedup float64 `json:"max_speedup,omitempty"`
	// TargetMet is present only when the host can meaningfully judge the
	// bar (>= 2 cores and at least one workers sweep). On a single-core
	// host it is omitted — never emitted as a silent false. Old baselines
	// that carry "target_met": false still parse.
	TargetMet *bool `json:"target_met,omitempty"`
	// Ratios holds derived sibling-entry ratios (see the package doc):
	// batch_vs_perslot, pipelined_vs_lockstep.
	Ratios map[string]float64 `json:"ratios,omitempty"`
	Note   string             `json:"note,omitempty"`
}

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkFig3VehiclesWorkers/workers=4-8   2  70178653 ns/op  36659424 B/op  581373 allocs/op
//
// (the -P GOMAXPROCS suffix is absent when GOMAXPROCS=1; it is captured
// for -procs matrix mode and stripped otherwise).
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// sweepName splits a workers-sweep sub-benchmark name — workers=N as its
// last segment — into the sweep's name and the worker count.
var sweepName = regexp.MustCompile(`^(\S+)/workers=(\d+)$`)

// parseOpts tunes parse. procsSuffix keeps GOMAXPROCS as a /procs=N name
// segment (matrix mode); cores is the measuring host's core count
// (injectable for tests).
type parseOpts struct {
	procsSuffix   bool
	cores         int
	targetSpeedup float64
}

func parse(lines []string, opts parseOpts) (*Report, error) {
	if opts.cores == 0 {
		opts.cores = runtime.NumCPU()
	}
	if opts.targetSpeedup == 0 {
		opts.targetSpeedup = 2.0
	}
	rep := &Report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Cores: opts.cores, TargetSpeedup: opts.targetSpeedup}
	type sweepRun struct {
		name    string
		workers int
	}
	var entryNames []string
	samples := map[string][]Entry{}
	sweepOf := map[string]sweepRun{}
	procsOf := func(s string) string {
		if !opts.procsSuffix {
			return ""
		}
		if s == "" {
			s = "1"
		}
		return "/procs=" + s
	}
	for _, line := range lines {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[3])
		if err != nil {
			return nil, fmt.Errorf("benchreport: bad iteration count in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("benchreport: bad ns/op in %q: %w", line, err)
		}
		e := Entry{Name: m[1] + procsOf(m[2]), Iterations: iters, NsPerOp: ns}
		if m[5] != "" {
			e.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			e.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		if sw := sweepName.FindStringSubmatch(m[1]); sw != nil {
			workers, err := strconv.Atoi(sw[2])
			if err != nil {
				return nil, fmt.Errorf("benchreport: bad workers count in %q: %w", line, err)
			}
			sweepOf[e.Name] = sweepRun{sw[1] + procsOf(m[2]), workers}
		}
		if _, seen := samples[e.Name]; !seen {
			entryNames = append(entryNames, e.Name)
		}
		samples[e.Name] = append(samples[e.Name], e)
	}
	if len(entryNames) == 0 {
		return nil, fmt.Errorf("benchreport: no benchmark lines found in input")
	}
	byName := map[string][]Run{}
	for _, name := range entryNames {
		e := medianEntry(samples[name])
		rep.Entries = append(rep.Entries, e)
		if sw, ok := sweepOf[name]; ok {
			byName[sw.name] = append(byName[sw.name], Run{Workers: sw.workers, Iterations: e.Iterations,
				NsPerOp: e.NsPerOp, BytesPerOp: e.BytesPerOp, AllocsPerOp: e.AllocsPerOp, Samples: e.Samples})
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	maxSwept := 0
	for _, name := range names {
		runs := byName[name]
		sort.Slice(runs, func(i, j int) bool { return runs[i].Workers < runs[j].Workers })
		b := Bench{Name: name, Runs: runs, Speedups: map[string]float64{}}
		var base float64
		for _, r := range runs {
			if r.Workers == 1 {
				base = r.NsPerOp
			}
			if r.Workers > maxSwept {
				maxSwept = r.Workers
			}
		}
		if base > 0 {
			for _, r := range runs {
				if r.Workers == 1 {
					continue
				}
				s := base / r.NsPerOp
				b.Speedups[fmt.Sprintf("workers=%d", r.Workers)] = s
				if r.Workers == runs[len(runs)-1].Workers {
					b.SpeedupAtMaxWorkers = s
					if s > rep.MaxSpeedup {
						rep.MaxSpeedup = s
					}
				}
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	rep.Ratios = computeRatios(rep.Entries)
	switch {
	case rep.Cores < 2:
		// A single-core host cannot show wall-clock speedup: record the
		// measured ratio but omit the verdict instead of emitting a
		// silent target_met: false.
		rep.Note = fmt.Sprintf("measured on a %d-core host: wall-clock speedup is bounded by the core count, so ratios near 1x reflect the hardware, not the engine; re-run scripts/bench.sh --matrix on a multi-core machine for the >=%gx target", rep.Cores, rep.TargetSpeedup)
	case len(rep.Benchmarks) > 0:
		rep.EffectiveTarget = effectiveTarget(rep.TargetSpeedup, rep.Cores, maxSwept)
		met := rep.MaxSpeedup >= rep.EffectiveTarget
		rep.TargetMet = &met
	}
	return rep, nil
}

// medianEntry reduces repeated samples of one benchmark to one entry
// whose iterations, ns/op, B/op and allocs/op are each the median over
// the samples (the mean of the middle pair for an even count).
func medianEntry(samples []Entry) Entry {
	field := func(get func(Entry) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = get(s)
		}
		sort.Float64s(xs)
		return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
	}
	return Entry{
		Name:        samples[0].Name,
		Iterations:  int(math.Round(field(func(e Entry) float64 { return float64(e.Iterations) }))),
		NsPerOp:     field(func(e Entry) float64 { return e.NsPerOp }),
		BytesPerOp:  int64(math.Round(field(func(e Entry) float64 { return float64(e.BytesPerOp) }))),
		AllocsPerOp: int64(math.Round(field(func(e Entry) float64 { return float64(e.AllocsPerOp) }))),
		Samples:     len(samples),
	}
}

// effectiveTarget scales the requested speedup bar down to what the host
// can physically show: 75% of the smaller of core count and widest swept
// worker count (2 cores cannot show 2x; 4 can).
func effectiveTarget(target float64, cores, maxSwept int) float64 {
	lim := cores
	if maxSwept < lim {
		lim = maxSwept
	}
	if bound := 0.75 * float64(lim); bound < target {
		return bound
	}
	return target
}

// ratioSpecs defines the sibling-entry ratios benchreport derives: the
// recorded value is slowNs/fastNs — how many times faster the fast
// variant runs — minimized over every matched pair.
var ratioSpecs = []struct {
	key        string
	fast, slow string
}{
	{"batch_vs_perslot", "mode=batch", "mode=perslot"},
	{"pipelined_vs_lockstep", "RoundPipelined", "RoundLockstep"},
}

// computeRatios derives the sibling-entry ratios present in entries.
func computeRatios(entries []Entry) map[string]float64 {
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	ratios := map[string]float64{}
	for _, spec := range ratioSpecs {
		worst := 0.0
		for _, e := range entries {
			if e.NsPerOp <= 0 || !strings.Contains(e.Name, spec.fast) {
				continue
			}
			sib, ok := byName[strings.Replace(e.Name, spec.fast, spec.slow, 1)]
			if !ok || sib.NsPerOp <= 0 {
				continue
			}
			if r := sib.NsPerOp / e.NsPerOp; worst == 0 || r < worst {
				worst = r
			}
		}
		if worst > 0 {
			ratios[spec.key] = worst
		}
	}
	return ratios
}

// regression is one benchmark whose ns/op grew beyond the tolerance.
type regression struct {
	Name     string
	OldNs    float64
	NewNs    float64
	Fraction float64 // (new-old)/old
}

// compareReports matches new entries against old ones by name and returns
// every regression beyond maxRegress (a fraction: 0.20 = 20% slower).
// Benchmarks present on only one side are ignored — adding or retiring a
// benchmark is not a performance regression.
func compareReports(oldRep, newRep *Report, maxRegress float64) []regression {
	oldByName := make(map[string]Entry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldByName[e.Name] = e
	}
	var regs []regression
	for _, e := range newRep.Entries {
		prev, ok := oldByName[e.Name]
		if !ok || prev.NsPerOp <= 0 {
			continue
		}
		frac := (e.NsPerOp - prev.NsPerOp) / prev.NsPerOp
		if frac > maxRegress {
			regs = append(regs, regression{Name: e.Name, OldNs: prev.NsPerOp, NewNs: e.NsPerOp, Fraction: frac})
		}
	}
	return regs
}

func main() {
	out := flag.String("out", "-", "output JSON path (- for stdout)")
	compare := flag.String("compare", "", "baseline report JSON to compare against; regressions fail with exit 1")
	maxRegress := flag.Float64("max-regress", 0.20, "tolerated ns/op growth over the baseline, as a fraction")
	procs := flag.Bool("procs", false, "matrix mode: keep GOMAXPROCS as a /procs=N name segment")
	requireSpeedup := flag.Float64("require-speedup", 0, "fail unless a workers sweep reaches this speedup (scaled to the host, skipped below 2 cores); 0 disables")
	minRatios := map[string]float64{}
	flag.Func("min-ratio", "name=V (repeatable): fail unless derived ratio name exists and is >= V", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want name=value, got %q", s)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		minRatios[name] = v
		return nil
	})
	flag.Parse()

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
	rep, err := parse(lines, parseOpts{procsSuffix: *procs, targetSpeedup: *requireSpeedup})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Load the baseline before writing -out, so comparing against the
	// report being refreshed in place works.
	var base *Report
	if *compare != "" {
		baseData, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		base = new(Report)
		if err := json.Unmarshal(baseData, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: parsing baseline %s: %v\n", *compare, err)
			os.Exit(2)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d entr(ies), cores=%d)\n", *out, len(rep.Entries), rep.Cores)
	}

	failed := false
	if base != nil {
		regs := compareReports(base, rep, *maxRegress)
		if len(regs) == 0 {
			fmt.Fprintf(os.Stderr, "benchreport: no regressions beyond %.0f%% against %s\n", *maxRegress*100, *compare)
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchreport: REGRESSION %s: %.0f -> %.0f ns/op (+%.1f%%)\n",
				r.Name, r.OldNs, r.NewNs, r.Fraction*100)
			failed = true
		}
	}
	if *requireSpeedup > 0 {
		switch {
		case rep.Cores < 2:
			fmt.Fprintf(os.Stderr, "benchreport: speedup gate skipped on a %d-core host (max_speedup %.2fx recorded)\n",
				rep.Cores, rep.MaxSpeedup)
		case rep.TargetMet == nil:
			fmt.Fprintln(os.Stderr, "benchreport: speedup gate FAILED: no workers sweep found in the input")
			failed = true
		case !*rep.TargetMet:
			fmt.Fprintf(os.Stderr, "benchreport: speedup gate FAILED: max %.2fx < effective target %.2fx (requested %.2fx, cores=%d)\n",
				rep.MaxSpeedup, rep.EffectiveTarget, *requireSpeedup, rep.Cores)
			failed = true
		default:
			fmt.Fprintf(os.Stderr, "benchreport: speedup gate passed: %.2fx >= %.2fx\n", rep.MaxSpeedup, rep.EffectiveTarget)
		}
	}
	// Ratio gates are core-count independent: the compared variants run
	// on the same hardware, so the ratio is meaningful even single-core.
	ratioNames := make([]string, 0, len(minRatios))
	for name := range minRatios {
		ratioNames = append(ratioNames, name)
	}
	sort.Strings(ratioNames)
	for _, name := range ratioNames {
		want := minRatios[name]
		got, ok := rep.Ratios[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchreport: ratio gate FAILED: %s not derivable from the input\n", name)
			failed = true
		case got < want:
			fmt.Fprintf(os.Stderr, "benchreport: ratio gate FAILED: %s = %.2fx < %.2fx\n", name, got, want)
			failed = true
		default:
			fmt.Fprintf(os.Stderr, "benchreport: ratio gate passed: %s = %.2fx >= %.2fx\n", name, got, want)
		}
	}
	if failed {
		os.Exit(1)
	}
}
