// Command perfbench is the repository's benchmark of the deployed agent
// service: a gateway in front of two backends, in one process, driven
// over HTTP by one load generator. It runs one workload per invocation
// and prints the result as the last line of standard output:
//
//	perfbench --workload ask|investigate|incidents --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run,
// preceded by a line with that run's wall-clock figures. With --trace 1
// it runs the workload untraced (for the wall-clock figures and the
// tracing overhead's reference) and then traced, each for --seconds, and
// prints the per-layer metrics. run.sh builds it (and llmstub) from
// source; README.md defines every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stub     string // llmstub binary
	root     string // repository root, for the host stamp
	// short shrinks every workload's sizing for the benchmark's tests,
	// and times the warm in-process set-up instead of cold ones.
	short bool
	// inject sends one request per run that the service must refuse, so
	// tests can check that failures are counted.
	inject bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Wall holds an untraced run's wall-clock figures, printed on a
	// line of their own: on a shared host they spread too far from run
	// to run to be bounded, so they are reported, not gated.
	Wall metricSet `json:"-"`
}

func main() {
	var o options
	var traceFlag int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "workload: ask, investigate or incidents")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (arrivals, popularity, questions, bursts)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer metrics from a traced run")
	flag.StringVar(&o.stub, "llmstub", "", "llmstub binary (the investigate workload's remote model)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.BoolVar(&probe, "setup-probe", false, "time one cold set-up, print it and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (ask, investigate, incidents), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if probe {
		d, err := withDeployment(w, o, nil, func(*deployment, *client) error { return nil })
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(d.Seconds())
		return
	}

	stamp, _ := json.Marshal(hostStamp(o))
	fmt.Printf("host %s\n", stamp)
	res, _, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.Wall != nil {
		wall, _ := json.Marshal(res.Wall)
		fmt.Printf("wall %s\n", wall)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadImpl is one named traffic mix.
type workloadImpl interface {
	// deployConfig is the deployment the workload runs against.
	deployConfig(o options) deployConfig
	// prepare computes reference answers in process; it is not timed.
	prepare(o options) error
	// setup brings the deployment to its serving state (sessions,
	// training); it is part of setup_s.
	setup(ctx context.Context, d *deployment, o options) error
	// measure warms the deployment up, calls begin, and drives the
	// workload for secs seconds.
	measure(ctx context.Context, d *deployment, c *client, o options, secs float64, begin func()) (*phase, error)
	// op names the workload's unit of work among the client spans.
	op() opKind
	// layers adds the workload's own per-layer metrics.
	layers(m metricSet, p *phase, ops []opTrace)
}

var workloads = map[string]workloadImpl{
	"ask":         &askWorkload{},
	"investigate": &investigateWorkload{},
	"incidents":   &incidentsWorkload{},
}

// phase is what one measured phase observed.
type phase struct {
	attempted, failed int64
	ops               int64 // operations completed without failure
	latency           []sample
	firstEvent        []sample
	ack               []sample
	completions       []time.Time     // closed-loop completion times (ask)
	capacity          float64         // completed operations per second
	cpuPerOp          []float64       // process CPU ms per completed operation, per window
	late              []time.Duration // open-loop send lateness
	events            int64           // SSE events read (investigate)
	scrapes           []time.Duration // GET /v1/metrics through the gateway (ask)
	scrapeBytes       []int
	snapshotKB        []float64 // session snapshot files after the run (ask)
	storeKB           []float64 // incident store files after the run (incidents)
	queueDepthMax     int       // incidents: max open incidents over both stores
}

// conns is the load generator's connection budget.
func conns() int { return runtime.NumCPU() }

func runDir(o options) (string, error) {
	return os.MkdirTemp("", "perfbench-"+o.workload+"-*")
}

// setupProbes is how many cold set-ups setup_s is the median of. Half
// are timed before the measured phase and half after it, so that a
// spell of contention on a shared host moves a few of them, not the
// median.
const setupProbes = 16

// probeSetups times n cold set-ups, each in a fresh child process so
// that every one pays what a freshly started deployment pays. The
// short mode times none.
func probeSetups(o options, n int) ([]float64, error) {
	if o.short {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", o.workload, "-llmstub", o.stub)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		lines := strings.Fields(string(b))
		if len(lines) == 0 {
			return nil, fmt.Errorf("setup probe printed nothing")
		}
		v, err := strconv.ParseFloat(lines[len(lines)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// withDeployment brings one deployment up to its serving state, runs
// measure against it and tears it down. It returns how long bringing
// the deployment up took.
func withDeployment(w workloadImpl, o options, tr *tracer, measure func(d *deployment, c *client) error) (time.Duration, error) {
	dir, err := runDir(o)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	d, err := deploy(w.deployConfig(o), dir, tr)
	if err != nil {
		return 0, err
	}
	defer d.close()
	if err := w.setup(context.Background(), d, o); err != nil {
		return 0, err
	}
	setup := time.Since(start)
	c := newClient(d.url, conns(), tr)
	defer c.close()
	return setup, measure(d, c)
}

// run measures one workload. A traced run also returns its spans.
func run(w workloadImpl, o options) (*result, []span, error) {
	if err := w.prepare(o); err != nil {
		return nil, nil, err
	}
	m := metricSet{}
	res := &result{Metrics: m}
	count := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}

	if !o.trace {
		setups, err := probeSetups(o, setupProbes/2)
		if err != nil {
			return nil, nil, err
		}
		var heap float64
		setup, err := withDeployment(w, o, nil, func(d *deployment, c *client) error {
			p, err := w.measure(context.Background(), d, c, o, o.seconds, func() {})
			if err != nil {
				return err
			}
			count(p)
			m.set("cpu_ms_per_op", "ms", median(p.cpuPerOp))
			res.Wall = metricSet{}
			wallMetrics(res.Wall, p)
			// p is dead from here on, so the collections free the
			// generator's samples and heap_mb covers the deployment.
			heap = liveHeapMB()
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		after, err := probeSetups(o, setupProbes-setupProbes/2)
		if err != nil {
			return nil, nil, err
		}
		if setups = append(setups, after...); len(setups) == 0 {
			// No child processes (the short mode): the warm in-process
			// set-up is all there is.
			setups = []float64{setup.Seconds()}
		}
		m.set("setup_s", "s", median(setups))
		m.set("heap_mb", "MB", heap)
		res.Correct = res.Failed == 0
		return res, nil, nil
	}

	// An untraced run as long as the end-to-end one: the tails, and the
	// reference for the tracing overhead.
	var plain *phase
	_, err := withDeployment(w, o, nil, func(d *deployment, c *client) error {
		var err error
		plain, err = w.measure(context.Background(), d, c, o, o.seconds, func() {})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	count(plain)

	// A traced run as long, on a fresh deployment whose sessions are
	// built with the traced model factories. Equal lengths keep the two
	// comparable where state grows over the run (the incident stores).
	tr := newTracer()
	restore := installModelTracing(tr)
	defer restore()
	var traced *phase
	_, err = withDeployment(w, o, tr, func(d *deployment, c *client) error {
		// Spans and counters cover the measured phase only, not set-up
		// or warm-up.
		var before counters
		begin := func() {
			tr.reset()
			before = readCounters(d)
		}
		var err error
		if traced, err = w.measure(context.Background(), d, c, o, o.seconds, begin); err != nil {
			return err
		}
		counterMetrics(m, before, readCounters(d), traced)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	count(traced)
	ops, orphans := joined(tr.all())
	spanMetrics(m, traced, w.op(), ops, orphans)
	w.layers(m, traced, ops)
	wallMetrics(m, plain)
	m.set("latency_p99_ms", "ms", ms(quantile(durations(plain.latency), 0.99)))
	m.set("first_event_p99_ms", "ms", ms(quantile(durations(plain.firstEvent), 0.99)))
	m.set("ack_p99_ms", "ms", ms(quantile(durations(plain.ack), 0.99)))
	m.set("gen.late_p99_ms", "ms", ms(quantile(plain.late, 0.99)))
	m.set("trace.overhead", "ratio", ratio(ms(windowedQuantile(traced.latency, 0.5)), ms(windowedQuantile(plain.latency, 0.5))))
	fillMissing(m, perLayerMetrics)
	res.Correct = res.Failed == 0
	return res, tr.all(), nil
}

// wallMetrics sets the wall-clock figures of an untraced phase.
func wallMetrics(m metricSet, p *phase) {
	m.set("latency_p50_ms", "ms", ms(windowedQuantile(p.latency, 0.50)))
	m.set("capacity_rps", "ops/s", p.capacity)
	m.set("first_event_p50_ms", "ms", ms(windowedQuantile(p.firstEvent, 0.50)))
	m.set("ack_p50_ms", "ms", ms(windowedQuantile(p.ack, 0.50)))
}

// liveHeapMB collects twice, so that objects parked in sync.Pool victim
// caches are gone too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostStamp records what the numbers were measured on.
func hostStamp(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(o.root),
		"source":     sourceHash(o.root),
	}
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

// commit reads HEAD from the repository's .git directory; a checkout
// without one (an exported tree) reports "none", and sourceHash then
// identifies the code.
func commit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the path and content of every Go source
// and go.mod file under root.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if name := e.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
