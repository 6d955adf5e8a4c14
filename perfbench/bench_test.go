package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a := schedule(w, 7, 1, 1000, 2*time.Second)
		b := schedule(w, 7, 1, 1000, 2*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave two different schedules (%d vs %d requests)", w.name, len(a), len(b))
		}
		if c := schedule(w, 8, 1, 1000, 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if d := schedule(w, 7, 0, 1000, 2*time.Second); reflect.DeepEqual(a, d) {
			t.Fatalf("%s: two connections got the same schedule", w.name)
		}
		s1, s2 := newStream(w, 7, 0, phaseSat), newStream(w, 7, 0, phaseSat)
		for i := 0; i < 1000; i++ {
			if r1, r2 := s1.next(), s2.next(); r1 != r2 {
				t.Fatalf("%s: saturation request %d differs: %+v vs %+v", w.name, i, r1, r2)
			}
		}
	}
}

func TestStreamMixAndKeys(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, 3, 0, phaseOpen)
		var count [numKinds]int
		uids := map[int64]bool{}
		const n = 100000
		for i := 0; i < n; i++ {
			r := s.next()
			count[r.kind]++
			if r.key < 1 || r.key > int64(w.rows) || (r.kind == opScan && r.key+scanWidth > int64(w.rows)) {
				t.Fatalf("%s: key %d outside the %d loaded rows", w.name, r.key, w.rows)
			}
			if r.uid != 0 {
				if uids[r.uid] {
					t.Fatalf("%s: inserted id %d repeats", w.name, r.uid)
				}
				uids[r.uid] = true
			}
		}
		for k, pm := range map[opKind]int{opWrite: w.writePM, opScan: w.scanPM} {
			got := float64(count[k]) / n * 1000
			if got < float64(pm)*0.9-1 || got > float64(pm)*1.1+1 {
				t.Errorf("%s: %s share %.1f‰, want about %d‰", w.name, kindNames[k], got, pm)
			}
		}
	}
}

func TestPercentileRules(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %d, want %d", c.p*100, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {200, 0.95, 10}, {199, 0.95, 9}, {10, 0.5, 5}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
		if got := supported(c.n, c.p); got != (c.want >= minTail) {
			t.Errorf("supported(%d, %g) = %v", c.n, c.p, got)
		}
	}
	// A 1% scan share over 20000 operations yields 200 scans: enough for
	// p95, not for p99.
	if !supported(200, 0.95) || supported(200, 0.99) {
		t.Error("200 samples must support p95 and not p99")
	}
}

func TestRatioAndMedian(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
	if medianFloat([]float64{3, 1, 2}) != 2 || medianFloat([]float64{4, 1, 2, 3}) != 2.5 || medianFloat(nil) != 0 {
		t.Error("medianFloat")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the harness that
// runs this benchmark reads, in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly and requires every correctness
// check to pass; one workload also runs traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := *w
		w.cycles = min(w.cycles, 1)
		modes := []bool{false}
		if w.name == "broker" {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			p := plan{w: &w, seed: 5, seconds: 1.5, out: t.TempDir(), rounds: 1, traced: traced}
			r, err := run(p)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(r.problems) > 0 || r.tally.attempted == 0 || r.tally.failed > 0 {
				t.Errorf("%s (traced %v): %d attempted, %d failed, problems %v",
					w.name, traced, r.tally.attempted, r.tally.failed, r.problems)
			}
			if traced {
				for _, m := range layers {
					if _, ok := r.layers[m.name]; !ok {
						t.Errorf("traced run reports no %s", m.name)
					}
				}
			}
		}
	}
}
