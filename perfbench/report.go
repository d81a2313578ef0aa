package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root declares the same names, units and directions (pinned by
// TestBenchmarkJSONMatchesDefinitions); Bound is the end-to-end
// regression bound. README.md defines each metric and records which
// end-to-end metric each layer metric should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are measured with tracing off (--trace 0).
var endToEnd = []metricDef{
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_round", Unit: "objects", Better: "lower", Bound: 0.05},
	{Name: "alloc_mib_per_round", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "heap_live_mib", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// perLayer are measured by the traced run (--trace 1). In-process values
// are per-round means over the traced Workers=1 rounds; node, transport
// and protocol values come from the traced pipe session.
var perLayer = []metricDef{
	{Name: "nn.train_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.train_allocs", Unit: "objects", Better: "lower"},
	{Name: "nn.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "core.upload_allocs", Unit: "objects", Better: "lower"},
	{Name: "core.verify_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "core.begin_round_ms", Unit: "ms", Better: "lower"},
	{Name: "core.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.aggregate_allocs", Unit: "objects", Better: "lower"},
	{Name: "core.new_scheme_ms", Unit: "ms", Better: "lower"},
	{Name: "core.batch_recovered", Unit: "slots", Better: "higher"},
	{Name: "core.batch_fallbacks", Unit: "slots", Better: "lower"},
	{Name: "core.batch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.decode_failures", Unit: "slots", Better: "lower"},
	{Name: "core.flagged", Unit: "vehicles", Better: "higher"},
	{Name: "fl.channel_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.distill_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.round_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.other_ms", Unit: "ms", Better: "lower"},
	{Name: "node.handshake_ms", Unit: "ms", Better: "lower"},
	{Name: "node.round_ms", Unit: "ms", Better: "lower"},
	{Name: "node.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "node.fusion_ms", Unit: "ms", Better: "lower"},
	{Name: "node.vehicle_compute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "node.vehicle_compute_ms_max", Unit: "ms", Better: "lower"},
	{Name: "node.upload_transit_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.send_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.msgs", Unit: "count", Better: "lower"},
	{Name: "protocol.up_kib", Unit: "KiB", Better: "lower"},
	{Name: "protocol.down_kib", Unit: "KiB", Better: "lower"},
	{Name: "wire_kib_per_round", Unit: "KiB", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult pairs every definition in defs with its measured value. It
// refuses a missing, extra or non-finite value, so a result line always
// carries exactly the declared metrics.
func buildResult(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (*result, error) {
	if len(values) != len(defs) {
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("measured %d metrics %v, declared %d", len(values), names, len(defs))
	}
	if attempted < 1 {
		return nil, fmt.Errorf("no rounds attempted")
	}
	r := &result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// line renders the result as one JSON object without a trailing newline.
func (r *result) line() (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}
