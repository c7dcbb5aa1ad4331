package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A daemon is one netemud process the benchmark started. Every daemon is
// registered in live until stop has killed it and reaped it, so the
// run's exit path — normal, failed, or signalled — can stop them all.
type daemon struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	logf string
	done chan struct{}
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// startDaemon boots netemud on a free loopback port with the given flags
// and waits until /healthz answers. Its log goes to dir/<name>.log.
func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStart(bin, dir, name, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin, dir, name string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf := filepath.Join(dir, name+".log")
	lf, err := os.Create(logf)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The kernel kills the daemon if the benchmark dies without running
	// its own clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, base: "http://" + addr, cmd: cmd, logf: logf, done: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	if err := d.awaitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var probeClient = &http.Client{Timeout: time.Second}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during boot: %s", d.name, d.logTail())
		default:
		}
		if resp, err := probeClient.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v: %s", d.name, limit, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logf)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.done
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// srvMetrics is the part of GET /metrics the benchmark reads.
type srvMetrics struct {
	Requests      int64 `json:"requests"`
	CoalescedHits int64 `json:"coalesced_hits"`
	MemoHits      int64 `json:"memo_hits"`
	Executions    int64 `json:"executions"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	Timeouts      int64 `json:"timeouts"`
	Panics        int64 `json:"panics"`
	SweepPoints   int64 `json:"sweep_points"`
	Store         *struct {
		Appends  int64 `json:"appends"`
		DupSkips int64 `json:"dup_skips"`
	} `json:"store"`
	Cluster *struct {
		WorkersAlive   int   `json:"workers_alive"`
		Forwarded      int64 `json:"forwarded"`
		Failovers      int64 `json:"failovers"`
		LocalFallbacks int64 `json:"local_fallbacks"`
	} `json:"cluster"`
	Endpoints map[string]struct {
		Requests  int64 `json:"requests"`
		LatencyUS struct {
			Count int64 `json:"count"`
			P50   int   `json:"p50"`
			P99   int   `json:"p99"`
		} `json:"latency_us"`
	} `json:"endpoints"`
}

func (d *daemon) metrics() (srvMetrics, error) {
	var m srvMetrics
	resp, err := probeClient.Get(d.base + "/metrics")
	if err != nil {
		return m, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	return m, nil
}

// cpuMS reads a process's user+system CPU time from /proc, in ms.
func cpuMS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (field 14) and stime (15) sit at offsets 11 and 12.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuStat reads the machine-wide CPU counters of /proc/stat: the total
// of all states and the steal time the hypervisor took, in clock ticks.
func cpuStat() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
