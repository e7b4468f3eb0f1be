package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// benchmark's output against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func buildStub(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "llmstub")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/llmstub").CombinedOutput(); err != nil {
		t.Fatalf("build llmstub: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsShort runs a short mode of every workload, untraced and
// traced, with one request per measured phase that the service must
// refuse.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the deployment")
	}
	bench := readBenchmarkFile(t)
	stub := buildStub(t)
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := options{workload: name, seed: 3, seconds: 2, trace: traced, stub: stub, root: "..", short: true, inject: true}
				res, spans, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}

				want := map[string]string{}
				defs := bench.EndToEnd
				phases := int64(1)
				if traced {
					defs = bench.PerLayer
					phases = 2 // the untraced run and the traced one
				}
				for _, d := range defs {
					want[d.Name] = d.Unit
				}
				got := map[string]string{}
				for k, v := range res.Metrics {
					got[k] = v.Unit
				}
				if len(got) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", traced, len(got), len(want))
				}
				for k, unit := range want {
					if got[k] != unit {
						t.Errorf("trace=%v: metric %s has unit %q, want %q", traced, k, got[k], unit)
					}
				}

				if res.Failed != phases || res.Correct {
					t.Errorf("trace=%v: failed=%d correct=%v, want the %d injected failures counted", traced, res.Failed, res.Correct, phases)
				}
				if res.Attempted <= res.Failed {
					t.Errorf("trace=%v: attempted=%d failed=%d", traced, res.Attempted, res.Failed)
				}

				if !traced {
					continue
				}
				ops, _ := joined(spans)
				kinds := map[opKind]int{}
				for _, op := range ops {
					kinds[op.client.op]++
					// The gateway's fan-out routes (the metrics scrape)
					// open their own backend requests without the
					// request ID, so only routed requests can join.
					if op.client.op != opScrape && len(op.backend) == 0 {
						t.Errorf("client span %d (%v) has no backend child", op.client.req, op.client.op)
					}
				}
				if kinds[w.op()] == 0 {
					t.Errorf("no traced %v operations (saw %v)", w.op(), kinds)
				}
			}
		})
	}
}

func TestCovered(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	iv := func(a, b int) span { return span{start: at(a), end: at(b)} }
	// Overlapping children count once, and parts outside the parent
	// not at all.
	got := covered(at(10), at(100), []span{iv(0, 20), iv(15, 30), iv(50, 60), iv(90, 200)})
	if want := 40 * time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

func TestWindowedQuantile(t *testing.T) {
	// maxWindows windows of 400 samples spread over 1..400 µs; one
	// window is stalled throughout. The windowed median ignores the
	// stalled window, the plain one shifts, and the plain p99 sees the
	// stall.
	var s []sample
	for i := 0; i < maxWindows*400; i++ {
		d := time.Duration(i%400+1) * time.Microsecond
		if i/400 == 4 {
			d = time.Second
		}
		s = append(s, sample{at: time.Unix(int64(i), 0), d: d})
	}
	if got := windowedQuantile(s, 0.5); got != 200*time.Microsecond {
		t.Fatalf("windowed p50 = %v, want the unstalled windows' 200µs", got)
	}
	if got := quantile(durations(s), 0.5); got <= 200*time.Microsecond {
		t.Fatalf("plain p50 = %v, want it shifted by the stall", got)
	}
	if got := quantile(durations(s), 0.99); got != time.Second {
		t.Fatalf("plain p99 = %v, want the stall", got)
	}
}
