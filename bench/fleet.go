package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves on the machine: the built binary,
// the run's temp directory and every child process. All of it lives under
// <checkout>/.bench_build, so a run reads and writes only inside its
// checkout.
type harness struct {
	root     string // the checkout: the directory holding cmd/currents
	buildDir string
	bin      string
	runDir   string

	mu        sync.Mutex
	procs     []*proc
	peakRSSKB int64
}

// findRoot walks up from the working directory to the module root, so the
// harness works from the checkout root and from bench/ (`go run -C bench .`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "currents", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: cmd/currents not found above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, buildDir: filepath.Join(root, ".bench_build")}
	h.bin = filepath.Join(h.buildDir, "currents")
	if err := os.MkdirAll(h.buildDir, 0o755); err != nil {
		return nil, err
	}
	sweepStaleRuns(h.buildDir)
	if h.runDir, err = os.MkdirTemp(h.buildDir, fmt.Sprintf("run-%d-", os.Getpid())); err != nil {
		return nil, err
	}
	return h, nil
}

// sweepStaleRuns removes the run directories of harnesses that no longer
// exist: one killed outright (a driver's timeout) cannot remove its own.
func sweepStaleRuns(buildDir string) {
	dirs, _ := filepath.Glob(filepath.Join(buildDir, "run-*"))
	for _, d := range dirs {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(d), "run-%d-", &pid); err != nil || pid <= 0 {
			continue
		}
		if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
			_ = os.RemoveAll(d)
		}
	}
}

// goEnv keeps the toolchain's cache and scratch inside the checkout too.
func (h *harness) goEnv() []string {
	tmp := filepath.Join(h.buildDir, "gotmp")
	_ = os.MkdirAll(tmp, 0o755)
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(h.buildDir, "gocache"),
		"GOTMPDIR="+tmp,
		"GOTOOLCHAIN=local",
	)
}

// buildBinary builds cmd/currents from the checkout's source: the benchmark
// measures the program as shipped, never a prebuilt one.
func (h *harness) buildBinary() error {
	cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/currents")
	cmd.Dir = h.root
	cmd.Env = h.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/currents: %v\n%s", err, out)
	}
	return nil
}

// childEnv is the harness's environment less its own marker: nothing that
// names the benchmark reaches the program.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, pinnedEnv+"=") {
			env = append(env, kv)
		}
	}
	return env
}

// lockedBuffer collects a child's stderr; the harness reads it for
// diagnostics while the child may still be writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one child process of the harness.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	started time.Time
	stderr  lockedBuffer
	done    chan struct{}
	waitErr error
}

// start launches the binary in its own process group, so one signal to the
// group reaches it and anything it forks.
func (h *harness) start(name, addr string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(h.bin, args...)
	p.cmd.Env = childEnv()
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = childAttr()
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	go func() {
		p.waitErr = p.cmd.Wait()
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			h.noteRSS(ru.Maxrss)
		}
		close(p.done)
	}()
	return p, nil
}

func (h *harness) peakRSS() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peakRSSKB
}

func (h *harness) noteRSS(kb int64) {
	h.mu.Lock()
	if kb > h.peakRSSKB {
		h.peakRSSKB = kb
	}
	h.mu.Unlock()
}

// runTool runs a one-shot subcommand (currents snapshot) to completion and
// returns its wall time.
func (h *harness) runTool(name string, args ...string) (time.Duration, error) {
	p, err := h.start(name, "", args...)
	if err != nil {
		return 0, err
	}
	<-p.done
	if p.waitErr != nil {
		return 0, fmt.Errorf("%s: %v\n%s", name, p.waitErr, p.tail())
	}
	return time.Since(p.started), nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) tail() string {
	s := p.stderr.String()
	if len(s) > 2000 {
		s = "…" + s[len(s)-2000:]
	}
	return s
}

func (p *proc) signal(sig syscall.Signal) {
	if p.cmd.Process != nil && !p.exited() {
		// Negative pid = the whole process group.
		_ = syscall.Kill(-p.cmd.Process.Pid, sig)
	}
}

// kill is the crash: SIGKILL, no drain, no flush the program gets to run.
func (p *proc) kill() {
	p.signal(syscall.SIGKILL)
	<-p.done
}

// stop is the graceful path; it falls back to kill if the drain hangs.
func (p *proc) stop() {
	p.signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// cleanup kills every child still running and removes the run directory. It
// is safe to call more than once and from the signal handler.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs := append([]*proc(nil), h.procs...)
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	_ = os.RemoveAll(h.runDir)
}

// leftovers reports what a finished run must not leave behind: a live
// process running the built binary, or the run directory.
func (h *harness) leftovers() []string {
	var out []string
	if _, err := os.Stat(h.runDir); err == nil {
		out = append(out, "temp dir "+h.runDir)
	}
	for _, pid := range pidsRunning(h.bin) {
		out = append(out, fmt.Sprintf("process %d still runs %s", pid, h.bin))
	}
	return out
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the box competes for
// ephemeral loopback ports during a run.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient is one generator client: one keep-alive connection, no more.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// conn is a client plus the reusable read buffer that keeps the generator's
// own allocation out of the measurement.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn { return &conn{c: newClient()} }

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and returns status and body; the body is valid until
// the next call on this conn.
func (c *conn) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) post(url string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, url, body)
}

func (c *conn) get(url string) (int, []byte, error) { return c.do(http.MethodGet, url, nil) }

// waitReady polls path until it answers 200, the process dies, or the
// deadline passes.
func waitReady(c *conn, p *proc, path string, within time.Duration) error {
	deadline := time.Now().Add(within)
	pause := 500 * time.Microsecond
	for {
		status, _, err := c.get("http://" + p.addr + path)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v\n%s", p.name, p.waitErr, p.tail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready on %s within %v (last: status %d, err %v)\n%s",
				p.name, path, within, status, err, p.tail())
		}
		time.Sleep(pause)
		if pause < 4*time.Millisecond {
			pause *= 2
		}
	}
}

// scrape reads one process's /metrics page.
func scrape(c *conn, addr string) (promSample, error) {
	status, body, err := c.get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", addr, status)
	}
	return parseProm(string(body)), nil
}

// fleet is one booted topology: shards, each on its own directory, and
// optionally a router in front. base is where the generator's clients aim.
type fleet struct {
	h       *harness
	dataset string
	routed  bool
	shards  []*shard
	router  *proc
	base    string
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.addr
	}
	return out
}

// ring is the -ring/-shards flag value; empty for an unrouted fleet, whose
// lone shard is told of no ring.
func (f *fleet) ring() string {
	if !f.routed {
		return ""
	}
	return strings.Join(f.addrs(), ",")
}

type shard struct {
	dir  string
	addr string
	p    *proc
}

func (h *harness) startShard(s *shard, ring string) error {
	args := []string{"server", "-addr", s.addr, "-load", s.dir,
		"-persist-appends", "load", "-retain-epochs", "4"}
	if ring != "" {
		// The documented production topology: a shard knows the ring, hints
		// the owner on a mis-aimed request, and can adopt a repaired world.
		args = append(args, "-adopt-dir", "load", "-ring", ring, "-self", s.addr)
	}
	p, err := h.start("shard "+s.addr, s.addr, args...)
	if err != nil {
		return err
	}
	s.p = p
	return nil
}

// bootFleet starts one shard per directory; routed shards are told the
// ring. It returns as soon as the processes are started: readiness is the
// caller's to time, and the router starts only once they are ready.
func (h *harness) bootFleet(dataset string, dirs []string, routed bool) (*fleet, error) {
	f := &fleet{h: h, dataset: dataset, routed: routed}
	for _, d := range dirs {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, &shard{dir: d, addr: addr})
	}
	for _, s := range f.shards {
		if err := h.startShard(s, f.ring()); err != nil {
			return nil, err
		}
	}
	f.base = "http://" + f.shards[0].addr
	return f, nil
}

func (f *fleet) answerURL(base string) string { return base + "/v1/" + f.dataset + "/answer" }
func (f *fleet) appendURL() string            { return f.base + "/v1/" + f.dataset + "/append" }
func (s *shard) url() string                  { return "http://" + s.addr }

// stop tears the fleet down: the router drains, the shards are killed (a
// shard's durable state is already on disk by the time an append is acked).
func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, s := range f.shards {
		if s.p != nil {
			s.p.kill()
		}
	}
}

// dirBytes sums the regular files under dir, archive included.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
