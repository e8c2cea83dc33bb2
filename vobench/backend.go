package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/persist"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// nodeOpts are the server settings a workload boots its node with.
type nodeOpts struct {
	checkpointBytes int64 // negative: no size-triggered checkpoints
}

// op is one protocol request: a query or update on /sparql (form
// encoded) or an N-Triples body on /ingest.
type op struct {
	path   string // "/sparql" or "/ingest"
	form   url.Values
	body   []byte
	accept string
}

type reply struct {
	status int
	body   []byte
	dur    time.Duration // request sent to body fully read
}

// acceptTypes maps a result format onto the media type a client asks for.
var acceptTypes = map[string]string{
	"":        "application/sparql-results+json",
	"json":    "application/sparql-results+json",
	"csv":     "text/csv",
	"geojson": "application/geo+json",
}

func sparqlOp(query, format string) op {
	return op{path: "/sparql", form: url.Values{"query": {query}}, accept: acceptTypes[format]}
}

func updateOp(update string) op { return op{path: "/sparql", form: url.Values{"update": {update}}} }

func ingestOp(nt []byte) op { return op{path: "/ingest", body: nt} }

func (o op) request(base string) (*http.Request, error) {
	var body io.Reader
	ctype := "application/n-triples"
	if o.form != nil {
		body = strings.NewReader(o.form.Encode())
		ctype = "application/x-www-form-urlencoded"
	} else {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(http.MethodPost, base+o.path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if o.accept != "" {
		req.Header.Set("Accept", o.accept)
	}
	return req, nil
}

// backend is a node the workloads drive: a teleios-server process over
// loopback HTTP (the measured run) or the same pieces wired in-process
// (the traced run).
type backend interface {
	start(dir string, o nodeOpts) error
	stop() error // graceful: drains and checkpoints
	do(o op) (reply, error)
	peakRSSMB() float64
	// cpuSeconds is the CPU time the node has used so far, across its
	// restarts. CPU time is charged only while the node runs, so unlike
	// wall time it does not grow with the CPU a shared host steals.
	cpuSeconds() float64
	// walFsyncs is the number of write-ahead-log fsyncs the running node
	// has made since it started.
	walFsyncs() (float64, error)
}

// ---------------------------------------------------------------------------
// A real teleios-server process.

type procBackend struct {
	bin    string
	logDir string
	client *http.Client
	cmd    *exec.Cmd
	base   string
	waitCh chan error
	nStart int
	// exitedCPU is the CPU time of the server processes that have ended.
	exitedCPU float64
}

func newProcBackend(bin, logDir string, conns int) *procBackend {
	return &procBackend{
		bin:    bin,
		logDir: logDir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (b *procBackend) start(dir string, o nodeOpts) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	b.nStart++
	logf, err := os.Create(filepath.Join(b.logDir, fmt.Sprintf("server-%d.log", b.nStart)))
	if err != nil {
		return err
	}
	cmd := exec.Command(b.bin, "-addr", addr, "-data-dir", dir,
		"-wal-sync", "always", "-checkpoint-every", "0",
		"-checkpoint-bytes", strconv.FormatInt(o.checkpointBytes, 10))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TELEIOS_FAILPOINTS=")
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	b.cmd, b.base = cmd, "http://"+addr
	b.waitCh = make(chan error, 1)
	go func() { b.waitCh <- cmd.Wait(); logf.Close() }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-b.waitCh:
			b.cmd = nil
			return fmt.Errorf("teleios-server exited during start: %v (log %s)", err, logf.Name())
		default:
		}
		resp, err := b.client.Get(b.base + "/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.kill()
	return errors.New("teleios-server did not become healthy within 60s")
}

func (b *procBackend) stop() error {
	if b.cmd == nil {
		return nil
	}
	b.client.CloseIdleConnections()
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		b.kill()
		return err
	}
	select {
	case err := <-b.waitCh:
		ps := b.cmd.ProcessState
		b.exitedCPU += (ps.UserTime() + ps.SystemTime()).Seconds()
		b.cmd = nil
		if err != nil {
			return fmt.Errorf("teleios-server shutdown: %v", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		b.kill()
		return errors.New("teleios-server did not stop within 60s")
	}
}

// kill ends the server without a graceful shutdown and waits for it.
func (b *procBackend) kill() {
	if b.cmd == nil {
		return
	}
	b.cmd.Process.Kill()
	<-b.waitCh
	b.cmd = nil
}

func (b *procBackend) do(o op) (reply, error) {
	req, err := o.request(b.base)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: body, dur: time.Since(start)}, err
}

// walFsyncs reads group_fsyncs from the server's /stats.
func (b *procBackend) walFsyncs() (float64, error) {
	resp, err := b.client.Get(b.base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Persistence struct {
			GroupFsyncs float64 `json:"group_fsyncs"`
		} `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/stats: status %d: %v", resp.StatusCode, err)
	}
	return st.Persistence.GroupFsyncs, nil
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MB.
func (b *procBackend) peakRSSMB() float64 {
	if b.cmd == nil {
		return 0
	}
	return vmHWM(b.cmd.Process.Pid)
}

func (b *procBackend) cpuSeconds() float64 {
	if b.cmd == nil {
		return b.exitedCPU
	}
	return b.exitedCPU + threadCPU(b.cmd.Process.Pid)
}

// threadCPU sums the on-CPU time of every thread of a live process, in
// seconds, from the scheduler's nanosecond counters.
func threadCPU(pid int) float64 {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread ended meanwhile
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// selfCPU is this process's user plus system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// The same pieces teleios-server wires, in this process, for the traced
// run: persist.Open, stsparql.New, endpoint.NewServer — with the engine
// behind a timing wrapper.

type inprocBackend struct {
	tr      *tracer
	manager *persist.Manager
	store   *strabon.Store
	engine  *stsparql.Engine
	srv     *endpoint.Server
	handler http.Handler
}

// timedEngine wraps the query engine: the tracer records the span of
// every EvalContext and the heap allocated across it.
type timedEngine struct {
	inner *stsparql.Engine
	tr    *tracer
}

func (t timedEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	end := t.tr.evalBegin()
	res, err := t.inner.EvalContext(ctx, q)
	end()
	return res, err
}

func (b *inprocBackend) start(dir string, o nodeOpts) error {
	m, st, err := persist.Open(persist.Options{
		Dir:             dir,
		SyncMode:        persist.SyncAlways,
		CheckpointBytes: o.checkpointBytes,
		SnapshotFormat:  persist.FormatPacked,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	eng := stsparql.New(st)
	srv, err := endpoint.NewServer(endpoint.Config{
		Engine:        timedEngine{inner: eng, tr: b.tr},
		Store:         st,
		DegradedCheck: m.Broken,
	})
	if err != nil {
		m.Close()
		return err
	}
	b.manager, b.store, b.engine, b.srv, b.handler = m, st, eng, srv, srv.Handler()
	return nil
}

func (b *inprocBackend) stop() error {
	if b.srv == nil {
		return nil
	}
	b.srv.Close()
	err := b.manager.Close()
	b.srv, b.handler = nil, nil
	return err
}

func (b *inprocBackend) closed() bool { return b.srv == nil }

func (b *inprocBackend) do(o op) (reply, error) {
	req, err := o.request("http://vobench")
	if err != nil {
		return reply{}, err
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	end := b.tr.requestBegin()
	b.handler.ServeHTTP(rec, req)
	end()
	return reply{status: rec.Code, body: rec.Body.Bytes(), dur: time.Since(start)}, nil
}

func (b *inprocBackend) peakRSSMB() float64 { return vmHWM(os.Getpid()) }

func (b *inprocBackend) cpuSeconds() float64 { return selfCPU() }

func (b *inprocBackend) walFsyncs() (float64, error) {
	return float64(b.manager.Stats().GroupFsyncs), nil
}
