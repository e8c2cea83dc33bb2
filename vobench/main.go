// Command vobench is the end-to-end benchmark of the TELEIOS observatory
// node. It starts a teleios-server built from the tree, drives one of
// three workloads over loopback HTTP, checks every response against
// answers it computes itself, and prints the metrics as one JSON line.
// With --trace 1 it instead wires the same layers in-process and
// reports per-layer metrics from spans around their public entry points.
//
// Usage (through vobench/run.sh, which builds both binaries):
//
//	vobench --workload NAME --seed N --seconds S --trace 0|1
//	vobench compare A.jsonl B.jsonl
//	vobench steady --workload NAME
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var workloads = map[string]func(*run) error{
	"catalogue-search": (*run).catalogueSearch,
	"bulk-export":      (*run).bulkExport,
	"fire-feed":        (*run).fireFeed,
}

// metric describes one reported metric.
type metric struct {
	name, unit, better string
}

// endToEnd lists the untraced run's gated metrics; every workload
// reports all of them. Wall-clock latencies and rates are printed on the
// lines before the result under the workload's own names (README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"load_cpu_us_per_triple", "us", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"disk_bytes_per_triple", "B", "lower"},
	{"wal_fsyncs_per_write", "count", "lower"},
}

// perLayer lists the traced run's metrics.
var perLayer = []metric{
	{"endpoint.overhead_ms.main", "ms", "lower"},
	{"endpoint.overhead_ms.side", "ms", "lower"},
	{"endpoint.cache_hit_ratio", "ratio", "higher"},
	{"stsparql.parse_ms", "ms", "lower"},
	{"stsparql.eval_ms.main", "ms", "lower"},
	{"stsparql.eval_ms.side", "ms", "lower"},
	{"stsparql.rows_examined_per_row.main", "ratio", "lower"},
	{"stsparql.rows_examined_per_row.side", "ratio", "lower"},
	{"stsparql.alloc_mb.main", "MB", "lower"},
	{"stsparql.alloc_mb.side", "MB", "lower"},
	{"strabon.snapshot_build_ms", "ms", "lower"},
	{"strabon.snapshot_builds", "count", "lower"},
	{"strabon.addall_ms", "ms", "lower"},
	{"strabon.resident_mb", "MB", "lower"},
	{"colpack.cached_mb", "MB", "lower"},
	{"rtree.candidates_per_row", "ratio", "lower"},
	{"geo.distance_us", "us", "lower"},
	{"geo.pairs_per_row", "ratio", "lower"},
	{"rdf.decode_mb_s", "MB/s", "higher"},
	{"persist.fsyncs_per_record", "ratio", "lower"},
	{"persist.records_per_batch", "ratio", "higher"},
	{"persist.ticket_wait_us", "us", "lower"},
	{"persist.checkpoint_ms", "ms", "lower"},
	{"persist.checkpoints", "count", "lower"},
	{"persist.wal_bytes_per_triple", "B", "lower"},
	{"persist.snapshot_bytes_per_triple", "B", "lower"},
	{"persist.recovery_ms", "ms", "lower"},
	{"noa.chain_ms", "ms", "lower"},
	{"noa.crop_ms", "ms", "lower"},
	{"noa.georeference_ms", "ms", "lower"},
	{"noa.classify_ms", "ms", "lower"},
	{"noa.geometry_ms", "ms", "lower"},
	{"sciql.mask_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func buildDir() string {
	if d := os.Getenv("VOBENCH_BUILD"); d != "" {
		return d
	}
	return ".bench_build"
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("vobench", flag.ContinueOnError)
	workload := fl.String("workload", "", "catalogue-search, bulk-export or fire-feed")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "vobench: unknown workload %q\n", *workload)
		return 2
	}
	build := buildDir()
	bin := filepath.Join(build, "bin", "teleios-server")
	if _, err := os.Stat(bin); err != nil && *trace == 0 {
		fmt.Fprintln(os.Stderr, "vobench: no teleios-server binary; run through vobench/run.sh:", err)
		return 1
	}
	dir := filepath.Join(build, "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vobench:", err)
		return 1
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		dir:     dir,
		bin:     bin,
		acc:     map[string]float64{},
	}
	if r.traced {
		r.tr = newTracer()
		r.ip = &inprocBackend{tr: r.tr}
	}
	err := fn(r)
	r.killAll()
	// A run that went wrong keeps its data directories and server logs
	// for inspection; any other run removes them.
	if err != nil || len(r.out.problems) > 0 {
		fmt.Fprintln(os.Stderr, "vobench: run directory kept:", dir)
	} else {
		os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vobench: %s: %v\n", *workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-%d.json", *workload, *seed))
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "vobench: writing spans:", err)
		} else {
			fmt.Printf("spans: %s (%d)\n", path, len(r.tr.spans))
		}
	}
	for _, p := range r.out.problems {
		fmt.Println("FAIL:", p)
	}
	for _, m := range r.out.report {
		fmt.Printf("%-28s %14s %s\n", m[0], m[1], m[2])
	}
	list, values := endToEnd, r.out.e2e
	if r.traced {
		list, values = perLayer, r.out.layers
	}
	line, err := resultLine(!r.out.broken, r.out.attempted, r.out.failed, list, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vobench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultLine renders the final JSON object; every listed metric must
// have a finite value.
func resultLine(correct bool, attempted, failed int, list []metric, values map[string]float64) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || v != v || v > 1e300 || v < -1e300 {
			return "", fmt.Errorf("metric %s has no finite value (%v)", m.name, v)
		}
		ms[m.name] = mv{v, m.unit}
	}
	if attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, ms})
	return string(data), err
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
