// Command perfbench is the repository benchmark. It builds nothing
// itself (run.sh builds the daemons and this program); it starts the
// shipped replicafleet and replicad binaries, loads them over loopback
// from this one process in a closed loop with at most nproc
// connections, runs the decomposition pipeline in-process, checks the
// answers, and prints every metric by name, unit and sample count.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// the run is replayed with spans and the metrics are per layer. A
// traced run then makes a shortened traced pass of every other
// workload (see layerPasses), so that it reports every per-layer
// metric, also those of layers its own workload does not reach.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"hit-replay":    runHit,
	"miss-solve":    runMiss,
	"session-churn": runChurn,
	"huge-decomp":   runDecomp,
}

// passOrder is the order of a traced run's layer passes: a per-layer
// metric comes from the run's own workload if it reaches that layer,
// else from the first pass here that does.
var passOrder = []string{"hit-replay", "miss-solve", "session-churn", "huge-decomp"}

// setupReps is how many times huge-decomp sets up in an untraced run;
// setup_s is the median. (HTTP workloads set up once per window.)
const setupReps = 3

// passSeconds is the length of a layer pass. Its socket window still
// runs until the sequence's checked prefix has been sent.
const passSeconds = 2

// bench is one invocation: its flags plus the report it fills.
type bench struct {
	binDir, outDir string
	workload       string
	seed           int64
	seconds        int
	trace          bool
	nproc          int
	client         *http.Client // at most nproc connections
	manifest       string       // BENCHMARK.json, whose metric names the result must hold
	// pass is set on a layer pass: it reports only per-layer metrics,
	// and only the run it belongs to (owner) prints them.
	pass  bool
	owner string

	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	lines     []string
	spans     []span // traced runs only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count
}

func main() {
	b := &bench{correct: true, metrics: map[string]metric{}, nproc: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&b.binDir, "bin", "", "directory holding the replicad and replicafleet binaries")
	flag.StringVar(&b.outDir, "out", "", "directory for trace files")
	flag.StringVar(&b.workload, "workload", "", "workload name")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed")
	flag.IntVar(&b.seconds, "seconds", 10, "length of a measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the workload with spans and reports per-layer metrics")
	flag.StringVar(&b.manifest, "manifest", "", "BENCHMARK.json; the run is incorrect unless it reports exactly the metrics it names")
	flag.Parse()
	b.trace = traceFlag == 1
	runner, ok := workloads[b.workload]
	if !ok || b.binDir == "" || b.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, -seconds >= 1 and -workload one of %s\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(b.nproc)
	b.client = newClient(b.nproc)
	b.hostFacts()
	err := runner(b)
	if err == nil && b.trace {
		err = b.layerPasses()
	}
	if err == nil && b.manifest != "" {
		err = b.checkManifest()
	}
	b.client.CloseIdleConnections()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.print()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostFacts records the machine every result was measured on.
func (b *bench) hostFacts() {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	b.say("host: nproc=%d client_gomaxprocs=%d daemon_gomaxprocs=%d go=%s cpu=%q",
		b.nproc, runtime.GOMAXPROCS(0), b.nproc, runtime.Version(), model)
	b.say("run: workload=%s seed=%d seconds=%d trace=%t", b.workload, b.seed, b.seconds, b.trace)
}

// layerPasses runs, after a traced run's own pass, a traced pass of
// every other workload, shortened to passSeconds, and takes from each
// the per-layer metrics the run does not have yet. Each pass checks its
// answers and guards like the run's own; its operations count towards
// attempted and failed.
func (b *bench) layerPasses() error {
	for _, name := range passOrder {
		if name == b.workload {
			continue
		}
		p := &bench{binDir: b.binDir, outDir: b.outDir, workload: name, seed: b.seed, seconds: passSeconds,
			trace: true, nproc: b.nproc, client: b.client, pass: true, owner: b.workload,
			correct: true, metrics: map[string]metric{}}
		err := workloads[name](p)
		for _, l := range p.lines {
			b.say("%s pass | %s", name, l)
		}
		b.count(p.attempted, p.failed)
		b.correct = b.correct && p.correct
		if err != nil {
			return fmt.Errorf("%s layer pass: %w", name, err)
		}
		names := make([]string, 0, len(p.metrics))
		for k := range p.metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if _, ok := b.metrics[k]; !ok {
				m := p.metrics[k]
				b.metrics[k] = m
				b.say("metric %-34s %14.6g %-7s n=%d (%s pass)", k, m.Value, m.Unit, m.n, name)
			}
		}
	}
	return nil
}

// checkManifest marks the run incorrect unless its metrics are exactly
// the end-to-end (untraced) or per-layer (traced) metrics the manifest
// names, each in its unit.
func (b *bench) checkManifest() error {
	raw, err := os.ReadFile(b.manifest)
	if err != nil {
		return err
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", b.manifest, err)
	}
	want := m.EndToEnd
	if b.trace {
		want = m.PerLayer
	}
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		switch got, ok := b.metrics[w.Name]; {
		case !ok:
			b.bad("metric %s of %s was not reported", w.Name, b.manifest)
		case got.Unit != w.Unit:
			b.bad("metric %s reported in %s, %s names %s", w.Name, got.Unit, b.manifest, w.Unit)
		}
	}
	for k := range b.metrics {
		if !seen[k] {
			b.bad("metric %s is not named in %s", k, b.manifest)
			delete(b.metrics, k)
		}
	}
	return nil
}

// say prints one human-readable line.
func (b *bench) say(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// report records a metric of the final JSON object, with its sample
// count on the human-readable line.
func (b *bench) report(name string, v float64, unit string, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit, n: n}
	b.say("metric %-34s %14.6g %-7s n=%d", name, v, unit, n)
}

// note prints a metric that is not part of this run's JSON object:
// one that some workload lacks or that can read 0 (fail_ratio,
// latency_p99_ms, mean_churn), or ops_per_s, which swings with the
// host's steal time more than the bounds allow.
func (b *bench) note(name string, v float64, unit string, n int) {
	b.say("note   %-34s %14.6g %-7s n=%d", name, v, unit, n)
}

// bad marks the run incorrect.
func (b *bench) bad(format string, args ...any) {
	b.correct = false
	b.say("CHECK FAILED: "+format, args...)
}

// count adds operations to the attempted/failed totals.
func (b *bench) count(attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
}

func (b *bench) print() {
	for k, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.bad("metric %s is not a number", k)
			delete(b.metrics, k)
		}
	}
	if b.attempted < 1 {
		b.bad("no operation attempted")
		b.attempted = 1
		b.failed = 1
	}
	for _, l := range b.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.correct, b.attempted, b.failed, b.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
