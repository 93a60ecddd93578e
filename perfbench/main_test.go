package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyRun runs one workload at test size and returns its parsed result line.
func tinyRun(t *testing.T, o options) result {
	t.Helper()
	o.tiny, o.seed, o.seconds = true, defaultSeed, 0.5
	if o.trace {
		o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	var out bytes.Buffer
	if _, err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", o.workload, err)
	}
	return res
}

func sortedKeys(m map[string]metricValue) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestWorkloadsAtTinySize runs every workload untraced and traced at test
// size: the printed metric names and units must be BENCHMARK.json's, no op
// may fail, and in the traced run every replayed point's replica must equal
// the flow (a mismatch fails the op) with every exact point replayed.
func TestWorkloadsAtTinySize(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(known)
	if got, want := strings.Join(known, ","), strings.Join(sortedCopy(names), ","); got != want {
		t.Fatalf("program workloads %s, BENCHMARK.json %s", got, want)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, options{workload: name, trace: trace})
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d: %v", name, trace, len(res.Metrics), len(want), sortedKeys(res.Metrics))
			}
			for k, m := range res.Metrics {
				if u, ok := want[k]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) is not in BENCHMARK.json as such", name, trace, k, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, k, m.Value)
					}
				}
			} else if f := res.Metrics["trace.replayed_frac"].Value; f != 1 {
				t.Errorf("%s: trace.replayed_frac %v, want every exact point replayed", name, f)
			}
		}
	}
}

// TestOracleCatchesPerturbedReference moves one reference value of every
// workload by one ulp: the run must report failed ops and not be correct.
func TestOracleCatchesPerturbedReference(t *testing.T) {
	for name := range workloads {
		res := tinyRun(t, options{workload: name, perturb: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed reference not caught: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
