package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"autotune/internal/server"
)

// daemon.go owns the autotuned subprocess: build it from source, spawn
// it on port 0, wait for the "listening on" handshake, read its rusage
// from /proc, and kill -9 it. The daemon runs with default flags; only
// its GOMAXPROCS and store directory are chosen here.

const handshakePrefix = "autotuned listening on "

// buildDaemon compiles cmd/autotuned into dir and returns the binary's
// path. The go tool skips the link when the binary is up to date, so
// calling it on every run costs a fraction of a second.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "autotuned")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "autotune/cmd/autotuned")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build autotuned: %w\n%s", err, out)
	}
	return bin, nil
}

// daemonProcs is the GOMAXPROCS the daemon runs with: every core but the
// one the load generator keeps for itself.
func daemonProcs() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

// daemon is one running autotuned subprocess.
type daemon struct {
	cmd     *exec.Cmd
	base    string    // http://host:port
	started time.Time // just before exec
	output  *lockedBuffer
	reaped  sync.WaitGroup // done once Wait returned
}

// lockedBuffer collects the daemon's stdout and stderr; the exec package
// writes to it from its copy goroutines while the run may read it to
// report a failure.
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

// startDaemon execs the binary against store and returns once the
// readiness line is on stdout. Everything the daemon prints is kept in
// d.output so a failed run can show it.
func startDaemon(bin, store string) (*daemon, error) {
	d := &daemon{output: &lockedBuffer{}}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, "-store", store, "-addr", "127.0.0.1:0")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs()))
	d.cmd.Stdout = pw
	d.cmd.Stderr = d.output
	d.started = time.Now()
	err = d.cmd.Start()
	//autolint:ignore droppederr the child holds its own copy of the write end (or never started); nothing was written through this one
	pw.Close()
	if err != nil {
		//autolint:ignore droppederr nothing was read; the start error is what the caller needs
		pr.Close()
		return nil, fmt.Errorf("start autotuned: %w", err)
	}
	d.reaped.Add(1)
	// Wait returns when the process exits, and every path that drops a
	// daemon calls kill, which waits for this goroutine.
	go func() {
		defer d.reaped.Done()
		// The exit status of a daemon this harness kills is "signal:
		// killed" by design; there is nothing to learn from it.
		d.cmd.Wait()
	}()
	rd := bufio.NewReader(pr)
	for {
		line, err := rd.ReadString('\n')
		fmt.Fprint(d.output, line)
		if addr, ok := strings.CutPrefix(strings.TrimSpace(line), handshakePrefix); ok {
			d.base = "http://" + addr
			break
		}
		if err != nil {
			//autolint:ignore droppederr read side of a pipe whose writer is gone
			pr.Close()
			d.kill()
			return nil, fmt.Errorf("autotuned exited before its readiness line:\n%s", d.output.String())
		}
	}
	// Drain the rest of stdout so the child never blocks on a full pipe;
	// the copy ends at EOF, which the child's exit (kill) delivers.
	go func() {
		io.Copy(d.output, rd)
		//autolint:ignore droppederr read side of a pipe that reached EOF
		pr.Close()
	}()
	return d, nil
}

// kill sends SIGKILL and waits until the process is gone.
func (d *daemon) kill() {
	// The process may already have exited; either way it is gone after
	// the wait.
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.reaped.Wait()
}

// client returns a typed client with its own transport holding one
// keep-alive connection, counting every API request it sends in sent.
func (d *daemon) client(sent *atomic.Int64) *server.Client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return server.NewClientHTTP(d.base, &http.Client{Transport: &countingTransport{next: tr, sent: sent}, Timeout: requestTimeout})
}

// requestTimeout bounds every client call; a request that takes longer
// counts as failed.
const requestTimeout = 60 * time.Second

// procStat is what /proc/<pid> says about the daemon.
type procStat struct {
	cpuMS float64 // time on a CPU, milliseconds, all threads
	hwmMB float64 // VmHWM, the peak resident set
}

// readProc reads the daemon's CPU time and peak RSS. Linux only; the
// benchmark's sandbox is Linux. CPU time is the scheduler's own
// nanosecond accounting summed over the daemon's threads
// (/proc/<pid>/task/*/schedstat): utime+stime in /proc/<pid>/stat are
// sampled at 100 Hz, which on a daemon that sleeps in fsync between
// sub-millisecond bursts read 12 % apart between identical runs.
func (d *daemon) readProc() (procStat, error) {
	var ps procStat
	pid := strconv.Itoa(d.cmd.Process.Pid)
	tasks, err := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return ps, fmt.Errorf("no /proc/%s/task/*/schedstat (kernel without scheduler statistics?)", pid)
	}
	for _, task := range tasks {
		data, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		onCPU, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseFloat(onCPU, 64)
		if err != nil {
			return ps, fmt.Errorf("unparseable %s: %q", task, data)
		}
		ps.cpuMS += ns / 1e6
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("unparseable VmHWM %q", rest)
			}
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// metrics scrapes the daemon's /metrics page into name -> value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// countingTransport counts API requests as they leave: everything the
// daemon counts in autotuned_requests_total, which is every path except
// the three probes.
type countingTransport struct {
	next http.RoundTripper
	sent *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	switch r.URL.Path {
	case "/healthz", "/readyz", "/metrics":
	default:
		t.sent.Add(1)
	}
	return t.next.RoundTrip(r)
}
