package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A set of runs is a JSON-lines file: each line one run's result object
// (the benchmark's last output line) plus its "workload" and "seed".

type runRecord struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// specPath is the benchmark definition; run.sh starts the benchmark at
// the root of the tree, where it lives.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json compare and steady need.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(specPath)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// verdict compares a base set a with a candidate set b of one metric.
type verdict struct {
	MedA, MedB         float64
	Q1A, Q3A, Q1B, Q3B float64
	Won                float64 // share of pairs (a[i], b[i]) b won; ties count for neither
	Verdict            string
}

// judge applies the rules of the benchmark's README: improved when b
// wins at least nine tenths of the pairs and the medians differ by more
// than a's quartile spread; no worse when b's median is within the
// bound of a's and a's own spread is within the bound; worse when the
// median moved beyond the bound on a steady metric; unresolved
// otherwise (unless every run of b beats every run of a).
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	var v verdict
	v.Q1A, v.MedA, v.Q3A = quartiles(a)
	v.Q1B, v.MedB, v.Q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n > 0 {
		v.Won = float64(wins) / float64(n)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	// worsening is b's relative move in the bad direction.
	worsening := (v.MedB - v.MedA) / v.MedA
	if !lowerBetter {
		worsening = -worsening
	}
	spread := (v.Q3A - v.Q1A) / v.MedA
	if v.MedA < 0 {
		spread = -spread
	}
	diff := v.MedB - v.MedA
	if diff < 0 {
		diff = -diff
	}
	switch {
	case v.Won >= 0.9 && better(v.MedB, v.MedA) && diff > v.Q3A-v.Q1A:
		v.Verdict = "improved"
	case allBetter:
		v.Verdict = "improved"
	case spread > bound:
		v.Verdict = "unresolved"
	case worsening <= bound:
		v.Verdict = "no worse"
	default:
		v.Verdict = "worse"
	}
	return v
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: vobench compare A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vobench compare:", err)
		return 1
	}
	a, err := readSet(args[0])
	if err == nil {
		var b []runRecord
		b, err = readSet(args[1])
		if err == nil {
			return compareSets(os.Stdout, spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "vobench compare:", err)
	return 1
}

// compareSets prints one row per workload × metric and returns 1 when a
// metric got worse or the sets disagree on failures or correctness.
func compareSets(w io.Writer, spec benchSpec, a, b []runRecord) int {
	group := func(rs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ga, gb := group(a), group(b)
	status := 0
	fmt.Fprintf(w, "%-17s %-22s %12s %12s %25s %25s %6s  %s\n",
		"workload", "metric", "median A", "median B", "quartiles A", "quartiles B", "won", "verdict")
	for _, wl := range sortedKeys(ga) {
		ra, rb := ga[wl], gb[wl]
		if len(rb) == 0 {
			fmt.Fprintf(w, "%-17s (no runs in B)\n", wl)
			status = 1
			continue
		}
		fa, fb := failShare(ra), failShare(rb)
		if fa != fb {
			fmt.Fprintf(w, "%-17s failed share differs: %.6f vs %.6f\n", wl, fa, fb)
			status = 1
		}
		for _, r := range append(append([]runRecord{}, ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-17s seed %d reported incorrect output\n", wl, r.Seed)
				status = 1
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-17s %-22s %12.4g %12.4g %12.4g–%-12.4g %12.4g–%-12.4g %5.0f%%  %s\n",
				wl, m.Name, v.MedA, v.MedB, v.Q1A, v.Q3A, v.Q1B, v.Q3B, 100*v.Won, v.Verdict)
			if v.Verdict == "worse" {
				status = 1
			}
		}
	}
	return status
}

func failShare(rs []runRecord) float64 {
	var att, fail int
	for _, r := range rs {
		att += r.Attempted
		fail += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

func values(rs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// steadyRuns is the number of runs in each of steady's two sets.
const steadyRuns = 10

// steadyMain runs one workload as two sets of ten runs of the same code,
// seeds 1..10 in each, at BENCHMARK.json's run_seconds, alternating which
// set runs first; it prints each set's spread (quartile distance over
// median) per metric and compares the sets.
func steadyMain(args []string) int {
	fl := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run")
	if err := fl.Parse(args); err != nil || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: vobench steady --workload NAME")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vobench steady:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vobench steady:", err)
		return 1
	}
	dir := filepath.Join(buildDir(), "steady", *workload)
	os.MkdirAll(dir, 0o755)
	paths := [2]string{filepath.Join(dir, "A.jsonl"), filepath.Join(dir, "B.jsonl")}
	files := [2]*os.File{}
	for i, p := range paths {
		if files[i], err = os.Create(p); err != nil {
			fmt.Fprintln(os.Stderr, "vobench steady:", err)
			return 1
		}
		defer files[i].Close()
	}
	for i := 1; i <= steadyRuns; i++ {
		order := []int{0, 1}
		if i%2 == 0 {
			order = []int{1, 0}
		}
		for _, set := range order {
			line, err := runOnce(self, *workload, uint64(i), spec.RunSeconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vobench steady:", err)
				return 1
			}
			fmt.Fprintf(files[set], "%s\n", line)
			fmt.Fprintf(os.Stderr, "set %c seed %d done\n", 'A'+set, i)
		}
	}
	for _, f := range files {
		f.Sync()
	}
	var sets [2][]runRecord
	for i, p := range paths {
		if sets[i], err = readSet(p); err != nil {
			fmt.Fprintln(os.Stderr, "vobench steady:", err)
			return 1
		}
	}
	fmt.Printf("spread (quartile distance / median) per set, against a third of the bound:\n")
	for _, m := range spec.EndToEnd {
		line := fmt.Sprintf("  %-22s bound %.2f", m.Name, m.Bound)
		for i := range sets {
			q1, q2, q3 := quartiles(values(sets[i], m.Name))
			line += fmt.Sprintf("   %c: %.3f", 'A'+i, (q3-q1)/q2)
		}
		fmt.Println(line)
	}
	return compareSets(os.Stdout, spec, sets[0], sets[1])
}

// runOnce runs the benchmark as a child process and returns its result
// line tagged with the workload and seed.
func runOnce(self, workload string, seed uint64, seconds float64) (string, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s seed %d: %v", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var obj map[string]any
	if err := json.Unmarshal([]byte(last), &obj); err != nil {
		return "", fmt.Errorf("%s seed %d: bad result line %q", workload, seed, last)
	}
	obj["workload"], obj["seed"] = workload, seed
	data, err := json.Marshal(obj)
	return string(data), err
}
