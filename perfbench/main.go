// Command perfbench is luf's open-loop service benchmark. It runs one
// named workload against real in-process lufd nodes (server.New, and a
// shard.Coordinator) on loopback listeners with fsynced journals, and
// prints every metric by name and unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload write-sync --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: set-up time and the
// allocation, disk and heap cost in its result line, and the latencies
// a client sees, the sustained rate, recovery and catch-up times and
// CPU per op in the lines before it. With --trace 1 it records
// spans at every layer boundary, replays the workload's op stream
// straight into the lower layers, and reports the per-layer metrics.
// Every answer is checked against an oracle; a wrong answer makes the
// run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the nominal-rate phase (it sends at least 10500 ops)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the report and span files")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report is the run's full record, written beside the span file.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Machine    machine              `json:"machine"`
	StreamHash string               `json:"op_stream_sha256"`
	Ops        int                  `json:"ops_precomputed"`
	NominalHz  float64              `json:"nominal_ops_s"`
	ExplainHz  float64              `json:"explain_probe_ops_s"`
	XUnionHz   float64              `json:"xunion_probe_ops_s"`
	LimitMS    float64              `json:"ladder_p99_limit_ms"`
	Ladder     []rung               `json:"ladder"`
	WindowP99  map[string][]float64 `json:"window_p99_ms"`
	Ungated    map[string]metric    `json:"ungated_metrics"`
	Phases     map[string]phaseRM   `json:"phases"`
	Setups     []float64            `json:"setup_s_reps"`
	Recovers   []float64            `json:"recover_s_reps"`
	Catchups   []float64            `json:"catchup_s_reps"`
	Notes      []string             `json:"notes,omitempty"`
	Wrong      []string             `json:"wrong,omitempty"`
	Result     result               `json:"result"`
}

// machine records where the numbers were taken.
type machine struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FsyncP50US float64 `json:"fsync_p50_us"`
	FsyncP99US float64 `json:"fsync_p99_us"`
}

// phaseRM summarizes one open-loop phase for the report.
type phaseRM struct {
	RateHz     float64 `json:"offered_ops_s"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	LateP99MS  float64 `json:"gen_late_p99_ms"`
	Backlog    int     `json:"final_backlog"`
	DurationS  float64 `json:"duration_s"`
	AchievedHz float64 `json:"achieved_ops_s"`
}

func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(filepath.Join(o.out, ".."), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	tr := newTracer()
	http.DefaultTransport = roundTripper{t: tr, base: http.DefaultTransport}
	ctx := context.Background()

	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		StreamHash: w.streamHash(), Ops: len(w.ops), NominalHz: w.rate, ExplainHz: w.explainHz, XUnionHz: w.xunionHz,
		LimitMS: w.limit, Phases: map[string]phaseRM{}, WindowP99: map[string][]float64{}, Ungated: map[string]metric{}}
	rep.Machine = machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	fs, err := fsyncLoop(root, 200)
	if err != nil {
		return nil, err
	}
	rep.Machine.FsyncP50US, _ = quantile(fs, 0.5)
	rep.Machine.FsyncP99US, _ = topQuantileV(fs, 0.99)

	b := &bench{o: o, w: w, tr: tr, root: root, rep: rep, acked: make([]atomic.Bool, len(w.ops))}
	defer b.closeCluster()
	if err := b.runAll(ctx); err != nil {
		if ph, ok := rep.Phases["nominal"]; ok {
			fmt.Fprintf(os.Stderr, "nominal phase: %+v\n", ph)
		}
		return nil, err
	}
	res := b.result()
	rep.Result = *res
	rep.Wrong = b.wrongList()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(o.out, fmt.Sprintf("report-%s-%d-%s.json", w.name, o.seed, mode))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d ops precomputed, op stream sha256 %s\n", w.name, o.seed, len(w.ops), rep.StreamHash)
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s, fsync p50 %.1fus p99 %.1fus\n",
		rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, rep.Machine.FsyncP50US, rep.Machine.FsyncP99US)
	for _, k := range sortedKeys(rep.Ungated) {
		fmt.Printf("%-34s %14.4f %s (reported, not gated)\n", k, rep.Ungated[k].Value, rep.Ungated[k].Unit)
	}
	for _, r := range rep.Ladder {
		fmt.Printf("ladder rung %6.0f ops/s: pass=%v %s\n", r.RateHz, r.Pass, r.Why)
	}
	for _, s := range rep.Wrong {
		fmt.Println("WRONG:", s)
	}
	fmt.Println("report:", path)
	return res, nil
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// topQuantileV is topQuantile's value alone.
func topQuantileV(sorted []float64, qmax float64) (float64, bool) {
	v, _, ok := topQuantile(sorted, qmax)
	return v, ok
}
