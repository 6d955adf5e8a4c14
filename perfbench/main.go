// Command perfbench is the repository's end-to-end benchmark. It builds,
// in-process, the stack repld builds for each workload's flags, serves it
// behind a loopback wire server, drives it with two pipelined wire
// clients — an open loop at a fixed offered rate, then a saturation phase
// — verifies every result and prints each metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice, untraced then traced, and the metrics are the
// per-layer ones plus the tracing overhead on each end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload broker --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the cluster sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"capacity_ops_s", "ops/s"},
	{"heap_peak_mb", "MB"},
}

// extras are end-to-end numbers that only some workloads have (scans,
// failovers), that are 0 while the program is correct, or whose spread
// between runs on the reference host exceeds the largest bound a
// regression gate may use (the p99s, driven by GC, checkpoints and the
// shared disk). They are printed with the per-layer metrics, which carry
// no regression bound.
var extras = []metricDef{
	{"read_p99_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"scan_p95_ms", "ms"},
	{"failover_ms", "ms"},
	{"rejoin_ms", "ms"},
	{"lost_txns", "count"},
	{"fail_ratio", "ratio"},
}

// layers are the traced run's numbers for each layer. A layer that does
// no work on a workload reports 0.
var layers = []metricDef{
	{"wire.overhead_us.p50", "us"},
	{"wire.overhead_us.p99", "us"},
	{"wire.inflight.mean", "requests"},
	{"core.read_us.p50", "us"},
	{"core.read_us.p99", "us"},
	{"core.write_us.p50", "us"},
	{"core.write_us.p99", "us"},
	{"core.scan_us.p50", "us"},
	{"admission.queued_ratio", "ratio"},
	{"admission.shed", "count"},
	{"admission.expired", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.invalidations_per_write", "ratio"},
	{"qcache.evictions", "count"},
	{"sqlparse.hit_ratio", "ratio"},
	{"sqlparse.parse_us.p50", "us"},
	{"engine.read_us.p50", "us"},
	{"engine.write_us.p50", "us"},
	{"engine.scan_us.p50", "us"},
	{"engine.allocs_per_op", "count"},
	{"groupcommit.wait_us.p50", "us"},
	{"groupcommit.wait_us.p99", "us"},
	{"groupcommit.commits_per_sync", "ratio"},
	{"provision.checkpoints", "count"},
	{"provision.checkpoint_ms", "ms"},
	{"apply.lag_events.p99", "events"},
	{"apply.events_per_batch", "ratio"},
	{"monitor.promote_ms", "ms"},
	{"monitor.failovers", "count"},
	{"monitor.rejoins", "count"},
	{"runtime.gc_pause_ms.total", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"gen.late_ms.p99", "ms"},
}

// perLayer is what a traced run prints: extras, layers and the tracing
// overhead on each end-to-end metric, as a share of the untraced value.
var perLayer = func() []metricDef {
	out := append(append([]metricDef(nil), extras...), layers...)
	for _, m := range endToEnd {
		out = append(out, metricDef{"trace.overhead." + m.name, "ratio"})
	}
	return out
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: broker | ledger | scatter | failover")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Float64("seconds", 15, "measured seconds per run (open loop plus saturation)")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for data directories and span files")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// A plain run pools three rounds; a traced run compares one untraced
	// round with one traced round of the same length. failover repeats
	// its kill cycles within one round instead.
	p := plan{w: w, seed: *seed, seconds: *seconds, out: *out, rounds: 3}
	if *trace == 1 || w.cycles > 0 {
		p.rounds = 1
	}
	printMeta(p, *trace == 1)

	res, err := measure(p, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, m := range sortedNames(res.Metrics) {
		fmt.Printf("%-34s %14.4f %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs p and assembles the reported result: end-to-end metrics,
// or with traced set the per-layer ones from an untraced and a traced run.
func measure(p plan, traced bool) (*result, error) {
	if !traced {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		return assemble(r, endToEnd, endToEndValues(r)), nil
	}
	plain, err := run(p)
	if err != nil {
		return nil, err
	}
	p.traced = true
	tr, err := run(p)
	if err != nil {
		return nil, err
	}
	vals := tr.layers
	for k, v := range extraValues(plain) {
		vals[k] = v
	}
	pv, tv := endToEndValues(plain), endToEndValues(tr)
	for _, m := range endToEnd {
		vals["trace.overhead."+m.name] = ratio(tv[m.name]-pv[m.name], pv[m.name])
	}
	res := assemble(plain, perLayer, vals)
	res.Correct = res.Correct && len(tr.problems) == 0
	res.Attempted += tr.tally.attempted
	res.Failed += tr.tally.failed
	for _, pr := range tr.problems {
		fmt.Fprintf(os.Stderr, "perfbench: traced run: %s\n", pr)
	}
	return res, nil
}

func assemble(r *runResult, defs []metricDef, vals map[string]float64) *result {
	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, pr := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", pr)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// endToEndValues computes the end-to-end metrics of one run.
func endToEndValues(r *runResult) map[string]float64 {
	lat := func(k opKind, p float64) float64 { v, _ := r.latency(k, p); return v }
	return map[string]float64{
		"setup_s":        medianFloat(r.setups),
		"read_p50_ms":    lat(opRead, 0.50),
		"write_p50_ms":   lat(opWrite, 0.50),
		"capacity_ops_s": medianFloat(r.windows),
		"heap_peak_mb":   medianFloat(r.heapPeaks) / (1 << 20),
	}
}

// extraValues computes the extras of one run. A p99 that the samples
// cannot support (fewer than minTail beyond it) is flagged on standard
// error.
func extraValues(r *runResult) map[string]float64 {
	p99 := func(k opKind) float64 {
		v, ok := r.latency(k, 0.99)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s p99 rests on fewer than %d samples beyond it\n", kindNames[k], minTail)
		}
		return v
	}
	m := map[string]float64{
		"read_p99_ms":  p99(opRead),
		"write_p99_ms": p99(opWrite),
		"lost_txns":    float64(r.lost),
		"fail_ratio":   ratio(float64(r.tally.failed), float64(r.tally.attempted)),
	}
	if s := r.pooled(opScan); len(s) > 0 {
		m["scan_p50_ms"] = nsToMs(percentile(s, 0.50))
		m["scan_p95_ms"] = nsToMs(percentile(s, 0.95))
	}
	if len(r.failovers) > 0 {
		m["failover_ms"] = nsToMs(percentile(sortedCopy(r.failovers), 0.50))
	}
	if len(r.rejoins) > 0 {
		m["rejoin_ms"] = nsToMs(percentile(sortedCopy(r.rejoins), 0.50))
	}
	return m
}

// printMeta records what the numbers depend on: seed, toolchain, host
// and the workload's load and flush policy.
func printMeta(p plan, traced bool) {
	meta := map[string]any{
		"workload":         p.w.name,
		"seed":             p.seed,
		"seconds":          p.seconds,
		"traced":           traced,
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu":              cpuModel(),
		"connections":      nconns,
		"offered_ops_s":    p.w.rate,
		"failover_cycles":  p.w.cycles,
		"rows":             p.w.rows,
		"durable":          p.w.durable,
		"fsync_every":      fsyncEvery,
		"group_commit":     p.w.groupCommit.String(),
		"checkpoint_every": checkpointEvery,
		"query_cache":      queryCacheSize,
		"rounds":           p.rounds,
		"open_loop_s":      p.openDur().Seconds(),
		"warmup_s":         p.warmDur().Seconds(),
		"saturation_s":     p.satDur().Seconds(),
	}
	b, _ := json.Marshal(meta) // a map of plain values always marshals
	fmt.Printf("meta %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedNames(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
