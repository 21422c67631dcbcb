package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
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

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs workload at self-test sizes through the command's
// printing path and decodes its last line.
func runTiny(t *testing.T, workload string, seed int64, trace bool) (result, int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := config{seed: seed, seconds: 0.3, trace: trace, tiny: true, outDir: t.TempDir(), out: &stdout}
	code := execute(workload, cfg, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return res, code, stdout.String() + stderr.String()
}

// TestSmoke runs every workload untraced and traced and checks that each
// prints the metrics BENCHMARK.json names, with their units, and passes its
// oracle. The workloads BENCHMARK.json lists print exactly its metrics; the
// ungated serve-range prints two more of its own (qps, lat_p50_us).
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	gated := map[string]bool{}
	for _, w := range s.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not one the command runs (%v)", w.Name, workloads)
		}
		gated[w.Name] = true
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, code, out := runTiny(t, name, 7, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, %+v\n%s", name, trace, code, res, out)
			}
			if (gated[name] || trace) && len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("%s trace=%v: metric %s missing from the printed table", name, trace, m.Name)
				}
			}
		}
	}
}

// TestOracleCatchesPerturbation corrupts one oracle answer per workload and
// expects failed operations and exit status 1. On wkt-query it corrupts one
// query's hit count but not the total, which only the per-query check sees.
func TestOracleCatchesPerturbation(t *testing.T) {
	for _, name := range workloads {
		var stdout, stderr bytes.Buffer
		cfg := config{seed: 7, seconds: 0.2, tiny: true, perturb: true, outDir: t.TempDir(), out: &stdout}
		if code := execute(name, cfg, &stderr); code != 1 {
			t.Errorf("%s: a perturbed oracle answer gave exit %d, want 1\n%s%s", name, code, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestHeldOutSeed runs all workloads in one process on a seed no other
// test or tuning run used; every answer must match the oracle.
func TestHeldOutSeed(t *testing.T) {
	res, code, out := runTiny(t, "all", 90210, false)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("held-out seed: exit %d, %d of %d failed\n%s", code, res.Failed, res.Attempted, out)
	}
	for _, w := range workloads {
		if _, ok := res.Metrics[w+"/input_mbps"]; !ok {
			t.Errorf("--workload all printed no input_mbps for %s", w)
		}
	}
}
