// Command perfbench measures L-CoFL rounds end to end and layer by layer.
//
//	bash perfbench/run.sh --workload paper-fleet --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it times whole rounds on the workload's own path (the
// in-process fl.System, or a node session over in-memory pipes), on one P
// by the process CPU clock, and prints the end-to-end metrics. With --trace 1 it repeats the
// workload's shape at Workers=1 through a pass-through fl.Scheme wrapper,
// and as a pipe session with pass-through transport.Conn wrappers on both
// ends of every pipe, and prints the per-layer metrics. Load is a closed
// loop: a round starts only when the previous one returns. The last line
// of standard output is one JSON object: correct, attempted and failed
// rounds, and the metrics by name with their units. README.md lists the
// workloads and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: paper-fleet or wide-verify")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	worker := fs.Bool("worker", false, "internal: be one measuring process of an end-to-end run and print its raw samples")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-fleet or wide-verify), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	if *worker {
		return runWorker(w, *seed, deadline, stdout, stderr)
	}
	var m *measurement
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		m, err = measureLayers(w, *seed, deadline)
	} else {
		m, err = measureEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, p := range m.Problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.Name, p)
	}
	for _, note := range m.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.Name, note)
	}
	res, err := buildResult(defs, m.values, m.Attempted, m.Failed, len(m.Problems) == 0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorker is one measuring process of an end-to-end run: it times the
// workload until the deadline and prints its raw samples as one JSON line.
func runWorker(w workload, seed int64, deadline time.Time, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	r, err := timeInproc(w, seed, deadline)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
