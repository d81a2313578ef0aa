package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func valuesFor(defs []metricDef) map[string]float64 {
	v := map[string]float64{}
	for i, d := range defs {
		v[d.Name] = float64(i) + 0.5
	}
	return v
}

func TestBuildResultLine(t *testing.T) {
	res, err := buildResult(endToEnd, valuesFor(endToEnd), 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(line, "\n") {
		t.Fatalf("result spans lines: %q", line)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if want := []string{"attempted", "correct", "failed", "metrics"}; !sameStrings(keys, want) {
		t.Errorf("top-level keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if len(m) != 2 || m["unit"] != d.Unit {
			t.Errorf("metric %s = %v, want value and unit %q", d.Name, m, d.Unit)
		}
	}
}

func TestBuildResultRefusesIncompleteMetrics(t *testing.T) {
	v := valuesFor(perLayer)
	delete(v, perLayer[0].Name)
	if _, err := buildResult(perLayer, v, 1, 0, true); err == nil {
		t.Error("missing metric accepted")
	}
	v = valuesFor(perLayer)
	v["surprise"] = 1
	if _, err := buildResult(perLayer, v, 1, 0, true); err == nil {
		t.Error("undeclared metric accepted")
	}
	v = valuesFor(perLayer)
	v[perLayer[1].Name] = math.NaN()
	if _, err := buildResult(perLayer, v, 1, 0, true); err == nil {
		t.Error("NaN metric accepted")
	}
	if _, err := buildResult(perLayer, valuesFor(perLayer), 0, 0, true); err == nil {
		t.Error("zero attempted rounds accepted")
	}
}

func TestFailedRoundsMakeResultIncorrect(t *testing.T) {
	res, err := buildResult(endToEnd, valuesFor(endToEnd), 10, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a failed round left the result correct")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesDefinitions pins BENCHMARK.json to the metrics
// and workloads this program actually reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q/%q, program has %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		checkName("end_to_end", m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d is %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName("per_layer", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d is %+v, program has %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitName.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document %s", name)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}
