package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/linkeddata"
	"repro/internal/noa"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/sciql"
	"repro/internal/stsparql"
)

const (
	setupReps      = 5   // set-ups per measured run; setup_s is their median
	catRound       = 200 // catalogue-search requests per round
	catWarmup      = 2 * catRound
	catSequenceLen = 200000
	catClients     = 2
	// catPeakAt is where the server's peak RSS is read: after the same
	// number of measured requests in every run, so the figure does not
	// grow with how many requests a run happened to fit in.
	catPeakAt = 10 * catRound
)

// run is one invocation of a workload.
type run struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string // this run's scratch directory
	bin     string // teleios-server binary
	nDirs   int

	procs []*procBackend

	tr *tracer
	ip *inprocBackend // the traced run's node
	// acc accumulates the per-layer counts the traced run derives.
	acc map[string]float64
	// persist telemetry gathered across the traced node's lifetimes.
	recoveryMs float64
	ckptMs     []float64
	ckpts      int
	lastCkpt   [2]uint64
	group      [3]uint64 // records, batches, fsyncs
	waitNs     float64
	// WAL fsyncs and write requests of the set-up loads.
	loadSyncs, loadWrites float64

	out outcome
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	problems          []string
	broken            bool // a whole-run invariant failed
	e2e               map[string]float64
	layers            map[string]float64
	// report lists the workload's metrics under their own names, for
	// people reading the log.
	report [][3]string
}

func (r *run) opFailed(format string, args ...any) {
	r.out.failed++
	if len(r.out.problems) < 10 {
		r.out.problems = append(r.out.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) invariant(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.out.broken = true
	if len(r.out.problems) < 10 {
		r.out.problems = append(r.out.problems, fmt.Sprintf(format, args...))
	}
}

// noteAll lists every sample of a per-set-up figure.
func (r *run) noteAll(name string, vs []float64, unit string) {
	var parts []string
	for _, v := range vs {
		parts = append(parts, strconv.FormatFloat(v, 'g', 4, 64))
	}
	r.out.report = append(r.out.report, [3]string{name, strings.Join(parts, " "), unit})
}

func (r *run) note(name string, v float64, unit string) {
	r.out.report = append(r.out.report, [3]string{name, strconv.FormatFloat(v, 'g', 6, 64), unit})
}

func (r *run) freshDir() string {
	r.nDirs++
	d := filepath.Join(r.dir, fmt.Sprintf("data-%d", r.nDirs))
	os.RemoveAll(d)
	return d
}

func (r *run) backend(conns int) backend {
	if r.traced {
		return r.ip
	}
	p := newProcBackend(r.bin, r.dir, conns)
	r.procs = append(r.procs, p)
	return p
}

// killAll ends any server a failed run left behind and waits for it.
func (r *run) killAll() {
	for _, p := range r.procs {
		p.kill()
	}
}

// warmedUp discards what the traced run recorded for reads during the
// warm-up, so the per-layer figures describe the measured requests only.
func (r *run) warmedUp() {
	if !r.traced {
		return
	}
	kept := r.tr.spans[:0]
	for _, s := range r.tr.spans {
		if s.Class != "main" && s.Class != "side" {
			kept = append(kept, s)
		}
	}
	// Spans of other classes are roots or children of roots of their own
	// class, so dropping whole classes leaves parent indices to remap.
	index := map[int]int{}
	j := 0
	for i, s := range r.tr.spans {
		if s.Class != "main" && s.Class != "side" {
			index[i] = j
			j++
		}
	}
	for i := range kept {
		if kept[i].Parent >= 0 {
			kept[i].Parent = index[kept[i].Parent]
		}
	}
	r.tr.spans = kept
	for k := range r.acc {
		if strings.HasPrefix(k, "examined.") || strings.HasPrefix(k, "returned.") || k == "spatialrows" {
			delete(r.acc, k)
		}
	}
}

func (r *run) reps() int {
	if r.traced {
		return 1
	}
	return setupReps
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// mbPerSecond is the rate at which one reply's body arrived, in MB/s.
func mbPerSecond(rep reply) float64 {
	return float64(len(rep.body)) / (1 << 20) / rep.dur.Seconds()
}

// ingestReply is the /ingest response body.
type ingestReply struct {
	Received int `json:"received"`
	Added    int `json:"added"`
}

// load posts an N-Triples body to /ingest and checks every triple was
// added. It returns the load rate in triples/s and the node's CPU time
// per triple in µs, and adds the load's WAL fsyncs to the run's set-up
// tally.
func (r *run) load(b backend, nt []byte, want int) (float64, float64, error) {
	r.tr.nextOp("ingest")
	r.probeDecode(nt)
	syncs, err := b.walFsyncs()
	if err != nil {
		return 0, 0, err
	}
	cpu := b.cpuSeconds()
	rep, err := b.do(ingestOp(nt))
	cpu = b.cpuSeconds() - cpu
	if err != nil {
		return 0, 0, err
	}
	r.afterWrite()
	var ir ingestReply
	if rep.status != 200 || json.Unmarshal(rep.body, &ir) != nil {
		return 0, 0, fmt.Errorf("ingest: status %d: %.200s", rep.status, rep.body)
	}
	r.invariant(ir.Added == want, "ingest added %d triples, want %d", ir.Added, want)
	after, err := b.walFsyncs()
	if err != nil {
		return 0, 0, err
	}
	r.loadSyncs += after - syncs
	r.loadWrites++
	return float64(want) / rep.dur.Seconds(), cpu * 1e6 / float64(want), nil
}

// setupMetrics records the set-up figures every workload reports: the
// node's CPU time per set-up (median) and per loaded triple (gated), and
// their wall-clock counterparts (printed).
func (r *run) setupMetrics(cpu, wall, loadCPU, loadRate []float64) {
	e := r.out.e2e
	e["setup_s"] = median(cpu)
	// Each load's CPU time is short enough for scheduling noise to show,
	// so this one is the mean of the five (all loads are the same size).
	e["load_cpu_us_per_triple"] = sum(loadCPU) / float64(len(loadCPU))
	for _, m := range endToEnd {
		r.note(m.name, e[m.name], m.unit)
	}
	r.noteAll("setup_cpu_runs_s", cpu, "s")
	r.noteAll("setup_wall_runs_s", wall, "s")
	r.noteAll("load_runs_tps", loadRate, "triples/s")
	r.note("setup_wall_s", median(wall), "s")
	r.note("load_tps", median(loadRate), "triples/s")
}

// sparqlJSON is the SPARQL 1.1 results JSON shape.
type sparqlJSON struct {
	Results struct {
		Bindings []map[string]struct {
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
}

// countQuery returns the number of live triples.
func countTriples(b backend) (int, error) {
	rep, err := b.do(sparqlOp("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", ""))
	if err != nil {
		return 0, err
	}
	return countFrom(rep)
}

func countFrom(rep reply) (int, error) {
	var res sparqlJSON
	if rep.status != 200 || json.Unmarshal(rep.body, &res) != nil || len(res.Results.Bindings) != 1 {
		return 0, fmt.Errorf("count: status %d: %.200s", rep.status, rep.body)
	}
	return strconv.Atoi(res.Results.Bindings[0]["n"].Value)
}

// ---------------------------------------------------------------------------
// catalogue-search

func (r *run) catalogueSearch() error {
	cat := genCatalogue(r.seed)
	searches, nears := genSearchPool(r.seed), genNearPool(r.seed)
	seq := genCatalogueSequence(r.seed, cat, searches, nears, catSequenceLen)
	// Expected answers, computed on first use (off the clock).
	wantSearch := map[int][]string{}
	wantNear := map[int]nearAnswer{}

	b := r.backend(catClients)
	var setups, walls, loads, loadCPU []float64
	var disk int64
	for rep := 0; rep < r.reps(); rep++ {
		dir := r.freshDir()
		t0, cpu0 := time.Now(), b.cpuSeconds()
		if err := r.startNode(b, dir, nodeOpts{checkpointBytes: -1}); err != nil {
			return err
		}
		tps, cpt, err := r.load(b, cat.NT, cat.Triples)
		if err != nil {
			b.stop()
			return err
		}
		loads, loadCPU = append(loads, tps), append(loadCPU, cpt)
		// A graceful stop writes the packed snapshot; the restart maps it
		// and serves in place.
		if err := r.stopNode(b); err != nil {
			return err
		}
		disk = dirBytes(dir)
		if err := r.startNode(b, dir, nodeOpts{checkpointBytes: -1}); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		setups = append(setups, b.cpuSeconds()-cpu0)
		if rep < r.reps()-1 {
			if err := r.stopNode(b); err != nil {
				return err
			}
		}
	}
	if n, err := countTriples(b); err != nil || n != cat.Triples {
		r.invariant(false, "restart recovered %d triples (%v), want %d", n, err, cat.Triples)
	}

	type rec struct {
		req request
		rep reply
		err error
	}
	do := func(q request) rec {
		r.tr.nextOp(mainSide("catalogue-search", q.Class))
		r.probeParse(q.Query)
		r.probeSnapshot()
		rep, err := b.do(sparqlOp(q.Query, ""))
		if err == nil && r.traced {
			r.probeRead(q, rep, cat, searches, nears)
		}
		return rec{q, rep, err}
	}
	for i := 0; i < catWarmup; i++ {
		do(seq[i])
	}
	r.warmedUp()
	clients := catClients
	if r.traced {
		clients = 1 // one at a time, so spans and allocations attribute cleanly
	}
	var (
		mu      sync.Mutex
		next    = catWarmup
		stopped bool
		recs    []rec
		wg      sync.WaitGroup
		peak    float64
	)
	start, cpu0 := time.Now(), b.cpuSeconds()
	deadline := start.Add(r.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []rec
			for {
				mu.Lock()
				if !stopped && (next-catWarmup)%catRound == 0 && time.Now().After(deadline) {
					stopped = true
				}
				if stopped {
					mu.Unlock()
					break
				}
				i := next
				next++
				if i == catWarmup+catPeakAt {
					peak = b.peakRSSMB()
				}
				mu.Unlock()
				mine = append(mine, do(seq[i%len(seq)]))
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed, cpu := time.Since(start).Seconds(), b.cpuSeconds()-cpu0

	var lat = map[string][]float64{}
	for _, x := range recs {
		r.out.attempted++
		if x.err != nil || x.rep.status != 200 {
			r.opFailed("%s: %v status %d", x.req.Class, x.err, x.rep.status)
			continue
		}
		var res sparqlJSON
		if err := json.Unmarshal(x.rep.body, &res); err != nil {
			r.opFailed("%s: bad JSON: %v", x.req.Class, err)
			continue
		}
		if x.req.Class == "search" {
			want, ok := wantSearch[x.req.Pool]
			if !ok {
				want = expectedSearch(cat, searches[x.req.Pool])
				wantSearch[x.req.Pool] = want
			}
			if msg := checkSearch(res, want); msg != "" {
				r.opFailed("search %d: %s", x.req.Pool, msg)
				continue
			}
		} else {
			want, ok := wantNear[x.req.Pool]
			if !ok {
				want = expectedNear(cat, nears[x.req.Pool])
				wantNear[x.req.Pool] = want
			}
			if msg := checkNear(res, want); msg != "" {
				r.opFailed("near %d: %s", x.req.Pool, msg)
				continue
			}
		}
		lat[x.req.Class] = append(lat[x.req.Class], float64(x.rep.dur)/1e6)
	}
	if peak == 0 {
		peak = b.peakRSSMB()
	}
	if r.traced {
		r.finishLayers("catalogue-search")
	}
	if err := r.stopNode(b); err != nil {
		return err
	}

	r.out.e2e = map[string]float64{
		"peak_rss_mb":           peak,
		"disk_bytes_per_triple": float64(disk) / float64(cat.Triples),
		// The set-up loads are this workload's only writes.
		"wal_fsyncs_per_write": r.loadSyncs / r.loadWrites,
		"cpu_ms_per_op":        cpu * 1e3 / float64(len(recs)),
	}
	r.setupMetrics(setups, walls, loadCPU, loads)
	r.note("read_rps", float64(len(recs)-r.out.failed)/elapsed, "1/s")
	for _, c := range []string{"search", "near"} {
		r.note(c+"_p50_ms", median(lat[c]), "ms")
		r.note(c+"_p90_ms", tailOrMedian(lat[c], 0.9), "ms")
		r.note(c+"_p99_ms", tailOrMedian(lat[c], 0.99), "ms")
	}
	r.note("search_samples", float64(len(lat["search"])), "count")
	r.note("near_samples", float64(len(lat["near"])), "count")
	return nil
}

func checkSearch(res sparqlJSON, want []string) string {
	got := res.Results.Bindings
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i, row := range got {
		if row["img"].Value != want[i] {
			return fmt.Sprintf("row %d is %s, want %s", i, row["img"].Value, want[i])
		}
	}
	return ""
}

func checkNear(res sparqlJSON, want nearAnswer) string {
	seen := map[string]bool{}
	for _, row := range res.Results.Bindings {
		key := row["h"].Value + "|" + row["site"].Value
		if !want.Must[key] && !want.Maybe[key] {
			return "unexpected pair " + key
		}
		seen[key] = true
	}
	for key := range want.Must {
		if !seen[key] {
			return "missing pair " + key
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// bulk-export

func (r *run) bulkExport() error {
	ex := genExport(r.seed)
	b := r.backend(1)
	var setups, walls, loads, loadCPU []float64
	var dir string
	for rep := 0; rep < r.reps(); rep++ {
		dir = r.freshDir()
		t0, cpu0 := time.Now(), b.cpuSeconds()
		if err := r.startNode(b, dir, nodeOpts{checkpointBytes: -1}); err != nil {
			return err
		}
		tps, cpt, err := r.load(b, ex.NT, ex.Triples)
		if err != nil {
			b.stop()
			return err
		}
		loads, loadCPU = append(loads, tps), append(loadCPU, cpt)
		walls = append(walls, time.Since(t0).Seconds())
		setups = append(setups, b.cpuSeconds()-cpu0)
		if rep < r.reps()-1 {
			if err := r.stopNode(b); err != nil {
				return err
			}
		}
	}

	do := func(q request) (reply, error) {
		r.tr.nextOpOf(mainSide("bulk-export", q.Class), q.Class+"/"+q.Format)
		r.probeParse(q.Query)
		r.probeSnapshot()
		rep, err := b.do(sparqlOp(q.Query, q.Format))
		if err == nil && r.traced {
			r.probeExplain(q.Query, rep, q.Format)
		}
		return rep, err
	}
	// Warm-up, off the clock: one export and one page.
	do(request{Class: "export", Query: exportQuery(-1)})
	do(request{Class: "page", Query: pageQuery(-2, 0)})
	r.warmedUp()

	lat := map[string][]float64{}
	var rates []float64 // export reply MB/s, per reply
	var peak float64
	start, cpu0 := time.Now(), b.cpuSeconds()
	for round := 0; round == 0 || time.Since(start) < r.seconds; round++ {
		var pageRows int
		var pageSum uint64
		for _, q := range exportRound(round) {
			r.out.attempted++
			rep, err := do(q)
			if err != nil || rep.status != 200 {
				r.opFailed("%s: %v status %d", q.Class, err, rep.status)
				continue
			}
			rows, chk, err := exportChecksum(rep.body, q.Format)
			if err != nil {
				r.opFailed("%s %s: %v", q.Class, q.Format, err)
				continue
			}
			if q.Class == "export" {
				if rows != exportRows || chk != ex.Checksum {
					r.opFailed("export %s: %d rows checksum %x, want %d rows %x", q.Format, rows, chk, exportRows, ex.Checksum)
					continue
				}
				rates = append(rates, mbPerSecond(rep))
			} else {
				if rows != exportPageSize {
					r.opFailed("page %d: %d rows, want %d", q.Pool, rows, exportPageSize)
					continue
				}
				pageRows += rows
				pageSum += chk
			}
			lat[q.Class] = append(lat[q.Class], float64(rep.dur)/1e6)
		}
		r.invariant(pageRows != exportRows || pageSum == ex.Checksum,
			"round %d: pages concatenate to a different result than the export", round)
		if round == 0 {
			// Peak RSS over exactly one round of work, the same in every run.
			peak = b.peakRSSMB()
		}
	}
	cpu := b.cpuSeconds() - cpu0
	if r.traced {
		r.finishLayers("bulk-export")
	}
	if err := r.stopNode(b); err != nil {
		return err
	}
	disk := dirBytes(dir)

	r.out.e2e = map[string]float64{
		"peak_rss_mb":           peak,
		"disk_bytes_per_triple": float64(disk) / float64(ex.Triples),
		// The set-up loads are this workload's only writes.
		"wal_fsyncs_per_write": r.loadSyncs / r.loadWrites,
		"cpu_ms_per_op":        cpu * 1e3 / float64(r.out.attempted),
	}
	r.setupMetrics(setups, walls, loadCPU, loads)
	r.note("export_p50_ms", median(lat["export"]), "ms")
	r.note("export_p90_ms", tailOrMedian(lat["export"], 0.9), "ms")
	r.note("export_mb_s", median(rates), "MB/s")
	r.note("page_p50_ms", median(lat["page"]), "ms")
	r.note("page_p90_ms", tailOrMedian(lat["page"], 0.9), "ms")
	for _, f := range []string{"json", "csv", "geojson"} {
		var v []float64
		// The rotation is fixed, so each format's samples sit at known
		// positions of the export latency list.
		for i, x := range lat["export"] {
			if exportFormats[i%len(exportFormats)] == f {
				v = append(v, x)
			}
		}
		r.note("export_"+f+"_p50_ms", median(v), "ms")
	}
	return nil
}

// exportChecksum decodes an export or page response and returns its row
// count and order-independent checksum.
func exportChecksum(body []byte, format string) (int, uint64, error) {
	var rows int
	var chk uint64
	add := func(iri, wkt, v string) error {
		pt, err := parseWKTPoint(wkt)
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		rows++
		chk += rowHash(iri, pt.X, pt.Y, f)
		return nil
	}
	switch format {
	case "", "json":
		var res sparqlJSON
		if err := json.Unmarshal(body, &res); err != nil {
			return 0, 0, err
		}
		for _, b := range res.Results.Bindings {
			if err := add(b["o"].Value, b["g"].Value, b["v"].Value); err != nil {
				return 0, 0, err
			}
		}
	case "csv":
		lines := bytes.Split(bytes.TrimRight(body, "\r\n"), []byte("\r\n"))
		if len(lines) == 0 || string(lines[0]) != "o,g,v" {
			return 0, 0, fmt.Errorf("bad CSV header")
		}
		for _, ln := range lines[1:] {
			// o,g,v where g is a WKT point (no commas, no quotes).
			f := bytes.Split(ln, []byte(","))
			if len(f) != 3 {
				return 0, 0, fmt.Errorf("bad CSV row %q", ln)
			}
			if err := add(string(f[0]), string(f[1]), string(f[2])); err != nil {
				return 0, 0, err
			}
		}
	case "geojson":
		var fc struct {
			Features []struct {
				Geometry struct {
					Coordinates []float64 `json:"coordinates"`
				} `json:"geometry"`
				Properties map[string]string `json:"properties"`
			} `json:"features"`
		}
		if err := json.Unmarshal(body, &fc); err != nil {
			return 0, 0, err
		}
		for _, f := range fc.Features {
			c := f.Geometry.Coordinates
			if len(c) != 2 {
				return 0, 0, fmt.Errorf("feature without a point geometry")
			}
			v, err := strconv.ParseFloat(f.Properties["v"], 64)
			if err != nil {
				return 0, 0, err
			}
			rows++
			chk += rowHash(f.Properties["o"], c[0], c[1], v)
		}
	default:
		return 0, 0, fmt.Errorf("unknown format %q", format)
	}
	return rows, chk, nil
}

// ---------------------------------------------------------------------------
// fire-feed

const (
	feedCheckpointBytes = 128 << 10
	// feedEpisodeSeconds is the run time one episode is budgeted: a
	// 20-second run makes 8 episodes of 16 acquisitions.
	feedEpisodeSeconds = 2.5
)

// feedNodeOpts: a low checkpoint threshold, so several checkpoints land
// inside every episode.
var feedNodeOpts = nodeOpts{checkpointBytes: feedCheckpointBytes}

func auxNTriples() ([]byte, int) {
	ts := linkeddata.All()
	var buf bytes.Buffer
	rdf.WriteNTriples(&buf, ts)
	return buf.Bytes(), len(ts)
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

type updateReply struct {
	Affected int `json:"affected"`
}

func (r *run) fireFeed() error {
	auxNT, auxN := auxNTriples()
	feed := genFeed(r.seed, auxNT, auxN)
	chain := noa.DefaultChain(scene.Region)
	updates := noa.RefinementUpdates()

	b := r.backend(1)
	var setups, walls, loads, loadCPU []float64
	var base string
	for rep := 0; rep < r.reps(); rep++ {
		base = r.freshDir()
		t0, cpu0 := time.Now(), b.cpuSeconds()
		if err := r.startNode(b, base, feedNodeOpts); err != nil {
			return err
		}
		tps, cpt, err := r.load(b, feed.AuxNT, feed.AuxSize)
		if err != nil {
			b.stop()
			return err
		}
		loads, loadCPU = append(loads, tps), append(loadCPU, cpt)
		if err := r.stopNode(b); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		setups = append(setups, b.cpuSeconds()-cpu0)
	}

	lat := map[string][]float64{}
	var peaks, diskPer []float64
	// cpu is the node's CPU time over the acquisitions plus this
	// process's CPU time in the chain and SciQL steps, the program work
	// the benchmark runs itself.
	var ingestTriples, ingestSecs, cpu float64
	// syncs is the WAL fsyncs over the acquisitions, writes the write
	// requests (ingests and updates) the node acknowledged meanwhile.
	var syncs, writes float64
	// The store grows as the feed runs, so the run length fixes the
	// number of episodes up front: a faster program does the same work,
	// not more of it.
	episodes := int(math.Ceil(r.seconds.Seconds() / feedEpisodeSeconds))
	for ep := 0; ep < episodes; ep++ {
		epi := genEpisode(r.seed, ep)
		dir := r.freshDir()
		if err := copyDir(base, dir); err != nil {
			return err
		}
		if err := r.startNode(b, dir, feedNodeOpts); err != nil {
			return err
		}
		nodeCPU := b.cpuSeconds()
		syncs0, err := b.walFsyncs()
		if err != nil {
			return err
		}
		detected, clipped, added := 0, 0, 0
		for i, f := range epi.Frames {
			r.out.attempted++
			t0 := time.Now()
			r.tr.nextOp("acq")
			var p *noa.Product
			var perr error
			selfCPU0 := selfCPU()
			r.tr.step("chain", func() { p, perr = chain.Run(f) })
			var mask *sciql.ArrayObject
			var serr error
			r.tr.step("sciql", func() { mask, serr = chain.RunSciQL(sciql.NewEngine(), f) })
			cpu += selfCPU() - selfCPU0
			if perr != nil || serr != nil {
				r.opFailed("acq %d: chain %v sciql %v", i, perr, serr)
				continue
			}
			r.chainStages(p)
			var nt bytes.Buffer
			rdf.WriteNTriples(&nt, p.Triples())
			r.tr.nextOp("ingest")
			r.probeDecode(nt.Bytes())
			ing, err := b.do(ingestOp(nt.Bytes()))
			r.afterWrite()
			var ir ingestReply
			if err != nil || ing.status != 200 || json.Unmarshal(ing.body, &ir) != nil {
				r.opFailed("acq %d ingest: %v status %d", i, err, ing.status)
				continue
			}
			writes++
			var ups [2]reply
			failed := false
			for k, u := range updates {
				r.tr.nextOp(mainSide("fire-feed", "update"))
				r.probeParse(u)
				r.probeSnapshot()
				ups[k], err = b.do(updateOp(u))
				r.afterWrite()
				if err != nil || ups[k].status != 200 {
					r.opFailed("acq %d update %d: %v status %d: %.200s", i, k, err, ups[k].status, ups[k].body)
					failed = true
					break
				}
				writes++
			}
			if failed {
				continue
			}
			// The writes are acknowledged: the episode-end totals count
			// them whatever the checks below find.
			var ub updateReply
			json.Unmarshal(ups[1].body, &ub)
			detected += len(p.Hotspots)
			clipped += ub.Affected / 3
			added += ir.Added
			r.tr.nextOp(mainSide("fire-feed", "map"))
			mq := mapQuery(noa.ProductIRI(p.FrameID).Value)
			r.probeParse(mq)
			r.probeSnapshot()
			fm, err := b.do(sparqlOp(mq, "geojson"))
			if err == nil && r.traced {
				r.probeMap(p, fm)
			}
			acq := time.Since(t0)
			if err != nil || fm.status != 200 {
				r.opFailed("acq %d map: %v status %d", i, err, fm.status)
				continue
			}
			// Checks, off the clock.
			pixels := 0
			for _, h := range p.Hotspots {
				pixels += h.PixelCount
			}
			if ones := maskOnes(mask); pixels != epi.FirePixels[i] || ones != epi.FirePixels[i] {
				r.opFailed("acq %d: chain found %d fire pixels, SciQL mask %d, threshold loop %d", i, pixels, ones, epi.FirePixels[i])
				continue
			}
			if ir.Added != 8*len(p.Hotspots) {
				r.opFailed("acq %d: ingest added %d triples for %d hotspots", i, ir.Added, len(p.Hotspots))
				continue
			}
			if msg := checkFireMap(fm.body, noa.ProductIRI(p.FrameID).Value, p, feed); msg != "" {
				r.opFailed("acq %d map: %s", i, msg)
				continue
			}
			lat["acq"] = append(lat["acq"], float64(acq)/1e6)
			lat["update"] = append(lat["update"], float64(ups[0].dur)/1e6, float64(ups[1].dur)/1e6)
			lat["map"] = append(lat["map"], float64(fm.dur)/1e6)
			ingestTriples += float64(ir.Added)
			ingestSecs += ing.dur.Seconds()
		}
		cpu += b.cpuSeconds() - nodeCPU
		syncs1, err := b.walFsyncs()
		if err != nil {
			return err
		}
		syncs += syncs1 - syncs0
		// Episode-end checks: every detected hotspot is either kept or
		// rejected, and a restart recovers exactly the acknowledged state.
		n, err := countClass(b, nsMon+"Hotspot")
		nr, err2 := countClass(b, nsMon+"RejectedHotspot")
		r.invariant(err == nil && err2 == nil && n+nr == detected,
			"episode %d: %d Hotspot + %d RejectedHotspot, want %d detected", ep, n, nr, detected)
		live, err := countTriples(b)
		r.invariant(err == nil && live == feed.AuxSize+added+clipped,
			"episode %d: %d live triples, want %d acknowledged", ep, live, feed.AuxSize+added+clipped)
		peaks = append(peaks, b.peakRSSMB())
		if r.traced {
			r.episodeLayers(live)
		}
		if err := r.stopNode(b); err != nil {
			return err
		}
		diskPer = append(diskPer, float64(dirBytes(dir))/float64(live))
		if err := r.startNode(b, dir, feedNodeOpts); err != nil {
			return err
		}
		again, err := countTriples(b)
		r.invariant(err == nil && again == live, "episode %d: restart recovered %d triples, want %d", ep, again, live)
		if err := r.stopNode(b); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	if r.traced {
		r.finishLayers("fire-feed")
	}

	r.out.e2e = map[string]float64{
		"peak_rss_mb":           median(peaks),
		"disk_bytes_per_triple": median(diskPer),
		"cpu_ms_per_op":         cpu * 1e3 / float64(r.out.attempted),
		// Writes on the blocking path, not the set-up load.
		"wal_fsyncs_per_write": syncs / writes,
	}
	r.setupMetrics(setups, walls, loadCPU, loads)
	r.note("acq_p50_ms", median(lat["acq"]), "ms")
	r.note("acq_p90_ms", tailOrMedian(lat["acq"], 0.9), "ms")
	r.note("update_p50_ms", median(lat["update"]), "ms")
	r.note("map_p50_ms", median(lat["map"]), "ms")
	r.note("feed_ingest_tps", ingestTriples/ingestSecs, "triples/s")
	r.note("acquisitions", float64(len(lat["acq"])), "count")
	return nil
}

func maskOnes(m *sciql.ArrayObject) int {
	n := 0
	for _, a := range m.Values {
		h, w := a.Height(), a.Dims[1].Size
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if a.At2(y, x) == 1 {
					n++
				}
			}
		}
	}
	return n
}

func countClass(b backend, class string) (int, error) {
	rep, err := b.do(sparqlOp(fmt.Sprintf("SELECT (COUNT(*) AS ?n) WHERE { ?x a <%s> }", class), ""))
	if err != nil {
		return 0, err
	}
	return countFrom(rep)
}

// checkFireMap verifies a fire map both ways, by the benchmark's own
// planar geometry. The hotspot features must be exactly the product's
// hotspots that the refinement keeps, those touching the landmass (a
// hotspot within 1 m of the coast may go either way). A kept hotspot
// that lies wholly on land keeps its detected footprint; one reaching
// over the coast is clipped, and its new geometry goes unchecked
// (README.md, Checks). Every auxiliary feature within 0.99 × the radius
// of a map hotspot must be present, and none beyond 1.01 × the radius
// may be.
func checkFireMap(body []byte, productIRI string, p *noa.Product, feed *feedData) string {
	var fc struct {
		Features []struct {
			Geometry   json.RawMessage   `json:"geometry"`
			Properties map[string]string `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		return "bad GeoJSON: " + err.Error()
	}
	type kept struct {
		footprint     box
		must, clipped bool
	}
	want := map[string]kept{}
	for _, h := range p.Hotspots {
		s := geoShape(h.Geometry)
		d := shapeDistance(s, feed.Land)
		if d > 1 {
			continue
		}
		k := kept{footprint: s.bounds(), must: d == 0}
		for _, part := range s.parts {
			for _, v := range part {
				// Inside-ness survives the local projection, so plain
				// degrees do here.
				if !anyVertexInside([][]point{{v}}, feed.Land.parts) {
					k.clipped = true
				}
			}
		}
		want[noa.HotspotIRI(h).Value] = k
	}
	var hot []shape
	seen := map[string]bool{}
	got := map[string]bool{} // "layer iri" of the auxiliary features
	var aux []auxFeature
	for _, f := range fc.Features {
		s, err := geoJSONShape(f.Geometry)
		if err != nil {
			return fmt.Sprintf("feature %s: %v", f.Properties["x"], err)
		}
		iri, layer := f.Properties["x"], f.Properties["layer"]
		if layer != "hotspots" {
			got[layer+" "+iri] = true
			aux = append(aux, auxFeature{layer, iri, s})
			continue
		}
		k, ok := want[iri]
		if !ok {
			return "hotspot feature " + iri + " is not a kept hotspot of " + productIRI
		}
		fp, b := k.footprint, s.bounds()
		const eps = 1e-6 // degrees
		if !k.clipped && (math.Abs(b.MinX-fp.MinX) > eps || math.Abs(b.MinY-fp.MinY) > eps ||
			math.Abs(b.MaxX-fp.MaxX) > eps || math.Abs(b.MaxY-fp.MaxY) > eps) {
			return fmt.Sprintf("hotspot feature %s lies on land but its footprint %v became %v", iri, fp, b)
		}
		seen[iri] = true
		hot = append(hot, s)
	}
	for iri, k := range want {
		if k.must && !seen[iri] {
			return "kept hotspot " + iri + " is missing"
		}
	}
	nearest := func(s shape) float64 {
		best, b := math.Inf(1), s.bounds()
		for _, h := range hot {
			if !apart(b, h.bounds(), 1.1*feedMapRadius) {
				best = math.Min(best, shapeDistance(s, h))
			}
		}
		return best
	}
	for _, f := range aux {
		if d := nearest(f.s); d > feedMapRadius*1.01 {
			return fmt.Sprintf("%s feature %s lies %.0f m from the nearest hotspot (radius %.0f)", f.layer, f.iri, d, feedMapRadius)
		}
	}
	for _, f := range feed.Aux {
		if got[f.layer+" "+f.iri] {
			continue
		}
		if d := nearest(f.s); d < feedMapRadius*0.99 {
			return fmt.Sprintf("%s feature %s, %.0f m from a hotspot, is missing (radius %.0f)", f.layer, f.iri, d, feedMapRadius)
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Traced-run probes: public layer functions called on the request's own
// inputs, before and after it.

func (r *run) startNode(b backend, dir string, o nodeOpts) error {
	if err := b.start(dir, o); err != nil {
		return err
	}
	if r.traced {
		r.recoveryMs = math.Max(r.recoveryMs, float64(r.ip.manager.Stats().RecoveryTook)/1e6)
		r.lastCkpt = [2]uint64{}
	}
	return nil
}

// stopNode stops the node gracefully; the traced run first banks the
// node's group-commit counters and its final checkpoint.
func (r *run) stopNode(b backend) error {
	if !r.traced {
		return b.stop()
	}
	err := b.stop()
	r.bankPersist()
	return err
}

func (r *run) bankPersist() {
	s := r.ip.manager.Stats()
	if s.LastCheckpointSeq != r.lastCkpt[0] || uint64(s.LastCheckpointAt.UnixMilli()) != r.lastCkpt[1] {
		if !s.LastCheckpointAt.IsZero() {
			r.ckpts++
			r.ckptMs = append(r.ckptMs, float64(s.LastCheckpointTook)/1e6)
		}
		r.lastCkpt = [2]uint64{s.LastCheckpointSeq, uint64(s.LastCheckpointAt.UnixMilli())}
	}
	if !r.ip.closed() {
		return
	}
	r.group[0] += s.GroupRecords
	r.group[1] += s.GroupBatches
	r.group[2] += s.GroupFsyncs
	r.waitNs += float64(s.TicketWaitMean) * float64(s.GroupRecords)
}

func (r *run) afterWrite() {
	if r.traced {
		r.bankPersist()
	}
}

func (r *run) probeParse(q string) {
	r.tr.probe("parse", func() float64 {
		stsparql.ParseQuery(q)
		return 0
	})
}

// probeSnapshot takes the store's read view before a request: after a
// write this is the snapshot rebuild the request would otherwise do.
func (r *run) probeSnapshot() {
	if !r.traced {
		return
	}
	r.tr.probe("snapshot", func() float64 {
		before := r.acc["snapversion"]
		sn := r.ip.store.Snapshot()
		if v := float64(sn.Version()); v != before {
			r.acc["snapversion"] = v
			r.acc["snapbuilds"]++
			return 1
		}
		return 0
	})
}

func (r *run) probeDecode(nt []byte) {
	r.tr.probe("decode", func() float64 {
		rdf.ParseNTriples(bytes.NewReader(nt))
		return float64(len(nt))
	})
}

func (r *run) chainStages(p *noa.Product) {
	if r.tr == nil || !r.tr.on {
		return
	}
	for _, st := range []string{"crop", "georeference", "classify", "geometry"} {
		r.acc["stage."+st] += float64(p.Timings[st]) / 1e6
	}
	r.acc["stage.n"]++
}

var explainRows = regexp.MustCompile(`rows=(\d+)`)

// probeExplain re-runs the read under EXPLAIN and records the rows its
// operators examined against the rows the request returned.
func (r *run) probeExplain(query string, rep reply, format string) {
	if !r.tr.on || rep.status != 200 {
		return
	}
	rows := 0
	if format == "" || format == "json" {
		var res sparqlJSON
		if json.Unmarshal(rep.body, &res) == nil {
			rows = len(res.Results.Bindings)
		}
	} else if format == "csv" {
		rows = bytes.Count(rep.body, []byte("\r\n")) - 1
	} else {
		var fc struct {
			Features []json.RawMessage `json:"features"`
		}
		if json.Unmarshal(rep.body, &fc) == nil {
			rows = len(fc.Features)
		}
	}
	class := r.tr.class
	r.tr.probe("explain", func() float64 {
		q, err := stsparql.ParseQuery("EXPLAIN " + query)
		if err != nil {
			return 0
		}
		res, err := r.ip.engine.EvalContext(context.Background(), q)
		if err != nil || len(res.Bindings) < 2 {
			return 0
		}
		examined := 0
		// Operator lines sit between the header and the final projection.
		for _, b := range res.Bindings[1 : len(res.Bindings)-1] {
			if m := explainRows.FindStringSubmatch(b["plan"].Value); m != nil {
				n, _ := strconv.Atoi(m[1])
				examined += n
			}
		}
		r.acc["examined."+class] += float64(examined)
		r.acc["returned."+class] += float64(rows)
		return float64(examined)
	})
}

// metresToDegrees converts a distance to a lon/lat envelope margin at
// latitude lat (the larger of the two axes).
func metresToDegrees(m, lat float64) float64 {
	return m / (111320 * math.Cos(lat*math.Pi/180))
}

// probeSpatial asks the R-tree for the candidates of each probe
// geometry's envelope expanded by metres, and times the geodesic
// distance of every candidate pair.
func (r *run) probeSpatial(probes []geo.Geometry, metres float64, rows int) {
	snap := r.ip.store.Snapshot()
	var pairs [][2]geo.Geometry
	r.tr.probe("rtree", func() float64 {
		n := 0
		for _, g := range probes {
			env := g.Envelope()
			cands := snap.SpatialCandidates(env.Expand(metresToDegrees(metres, env.Center().Y)))
			n += len(cands)
			for _, id := range cands {
				if sv, ok := snap.Geometry(id); ok {
					pairs = append(pairs, [2]geo.Geometry{g, sv.Geom})
				}
			}
		}
		return float64(n)
	})
	r.tr.probe("distance", func() float64 {
		for _, p := range pairs {
			geo.GeodesicDistanceMeters(p[0], p[1])
		}
		return float64(len(pairs))
	})
	r.acc["spatialrows"] += float64(rows)
}

func (r *run) probeRead(q request, rep reply, cat *catalogue, searches []searchSpec, nears []nearSpec) {
	if !r.tr.on || rep.status != 200 {
		return
	}
	r.probeExplain(q.Query, rep, "")
	var res sparqlJSON
	json.Unmarshal(rep.body, &res)
	rows := len(res.Results.Bindings)
	if rows == 0 {
		rows = 1 // an empty answer still cost its candidates
	}
	switch q.Class {
	case "search":
		w := searches[q.Pool].Window
		r.probeSpatial([]geo.Geometry{geo.Rect(w.MinX, w.MinY, w.MaxX, w.MaxY)}, 0, rows)
	case "near":
		var hs []geo.Geometry
		for _, h := range cat.Products[nears[q.Pool].Product].Hotspots {
			hs = append(hs, geo.Rect(h.Box.MinX, h.Box.MinY, h.Box.MaxX, h.Box.MaxY))
		}
		r.probeSpatial(hs, nears[q.Pool].Meters, rows)
	}
}

func (r *run) probeMap(p *noa.Product, rep reply) {
	if !r.tr.on || rep.status != 200 {
		return
	}
	r.probeExplain(mapQuery(noa.ProductIRI(p.FrameID).Value), rep, "geojson")
	var hs []geo.Geometry
	for _, h := range p.Hotspots {
		hs = append(hs, h.Geometry)
	}
	var fc struct {
		Features []json.RawMessage `json:"features"`
	}
	json.Unmarshal(rep.body, &fc)
	rows := len(fc.Features)
	if rows == 0 {
		rows = 1
	}
	r.probeSpatial(hs, feedMapRadius, rows)
}

// episodeLayers samples the store and WAL footprint of a fire-feed
// episode before its node stops.
func (r *run) episodeLayers(live int) {
	s := r.ip.manager.Stats()
	r.acc["walbytes"] += float64(s.WALBytes) / float64(live)
	r.acc["snapbytes"] += float64(s.SnapshotBytes) / float64(live)
	r.acc["footprints"]++
}

// mainSide maps a workload's request class onto the main/side slots the
// per-layer metrics are named by.
func mainSide(workload, class string) string {
	switch workload + "/" + class {
	case "catalogue-search/search", "bulk-export/export", "fire-feed/map":
		return "main"
	case "catalogue-search/near", "bulk-export/page", "fire-feed/update":
		return "side"
	}
	return class
}

// finishLayers derives the per-layer metrics from the spans and counts.
func (r *run) finishLayers(workload string) {
	t := r.tr
	t.finish()
	if workload != "fire-feed" {
		s := r.ip.manager.Stats()
		live := float64(r.ip.store.Len())
		r.acc["walbytes"] = float64(s.WALBytes) / live
		r.acc["snapbytes"] = float64(s.SnapshotBytes) / live
		r.acc["footprints"] = 1
	}
	if !r.ip.closed() {
		// The node still runs: count its group-commit work so far.
		s := r.ip.manager.Stats()
		r.group[0] += s.GroupRecords
		r.group[1] += s.GroupBatches
		r.group[2] += s.GroupFsyncs
		r.waitNs += float64(s.TicketWaitMean) * float64(s.GroupRecords)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l := map[string]float64{}
	for _, c := range []string{"main", "side"} {
		l["endpoint.overhead_ms."+c] = median(t.overheads(c))
		l["stsparql.eval_ms."+c] = median(t.durations("eval", c))
		l["stsparql.rows_examined_per_row."+c] = ratio(r.acc["examined."+c], r.acc["returned."+c])
		l["stsparql.alloc_mb."+c] = t.allocMB(c)
	}
	// A request with no eval span was answered from the result cache.
	var reads, hits float64
	evalled := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == "eval" {
			evalled[s.Req] = true
		}
	}
	for _, s := range t.spans {
		if s.Name == "request" && (s.Class == "main" || s.Class == "side") && workload != "fire-feed" {
			reads++
			if !evalled[s.Req] {
				hits++
			}
		}
	}
	l["endpoint.cache_hit_ratio"] = ratio(hits, reads)
	l["stsparql.parse_ms"] = median(t.durations("parse", ""))
	var builds []float64
	for _, s := range t.spans {
		if s.Name == "snapshot" && s.N > 0 {
			builds = append(builds, float64(s.End-s.Start)/1e6)
		}
	}
	if len(builds) == 0 {
		builds = t.durations("snapshot", "")
	}
	l["strabon.snapshot_build_ms"] = median(builds)
	l["strabon.snapshot_builds"] = t.sumN("snapshot", "")
	l["strabon.addall_ms"] = median(t.durations("request", "ingest"))
	resident := float64(r.ip.store.ResidentEstimate()) / (1 << 20)
	l["strabon.resident_mb"] = resident
	if r.ip.store.StorageMode() == "mapped" {
		l["colpack.cached_mb"] = resident
	} else {
		l["colpack.cached_mb"] = 0
	}
	l["rtree.candidates_per_row"] = ratio(t.sumN("rtree", ""), r.acc["spatialrows"])
	l["geo.distance_us"] = ratio(sum(t.durations("distance", ""))*1e3, t.sumN("distance", ""))
	l["geo.pairs_per_row"] = ratio(t.sumN("distance", ""), r.acc["spatialrows"])
	l["rdf.decode_mb_s"] = ratio(t.sumN("decode", "")/(1<<20), sum(t.durations("decode", ""))/1e3)
	l["persist.fsyncs_per_record"] = ratio(float64(r.group[2]), float64(r.group[0]))
	l["persist.records_per_batch"] = ratio(float64(r.group[0]), float64(r.group[1]))
	l["persist.ticket_wait_us"] = ratio(r.waitNs, float64(r.group[0])) / 1e3
	l["persist.checkpoint_ms"] = median(r.ckptMs)
	l["persist.checkpoints"] = float64(r.ckpts)
	l["persist.wal_bytes_per_triple"] = ratio(r.acc["walbytes"], r.acc["footprints"])
	l["persist.snapshot_bytes_per_triple"] = ratio(r.acc["snapbytes"], r.acc["footprints"])
	l["persist.recovery_ms"] = r.recoveryMs
	l["noa.chain_ms"] = median(t.durations("chain", ""))
	for _, st := range []string{"crop", "georeference", "classify", "geometry"} {
		l["noa."+st+"_ms"] = ratio(r.acc["stage."+st], r.acc["stage.n"])
	}
	l["sciql.mask_ms"] = median(t.durations("sciql", ""))
	traced, bare := median(t.opCost("main")), median(t.bare["main"])
	l["trace.overhead_pct"] = ratio(traced-bare, bare) * 100
	r.out.layers = l
}
