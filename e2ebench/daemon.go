package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running lattold process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logs bytes.Buffer
	done chan struct{}
}

// freePorts reserves n loopback ports by listening on port 0 and releasing
// them; the daemons bind them right after.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startCluster spawns n lattold nodes on loopback (a consistent-hash ring
// when n > 1) and waits until every one answers /healthz. storeDir, when
// set, gives each node its own artifact store under it, so each boots by
// building the surrogate grid.
func startCluster(bin string, n int, storeDir string) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, fmt.Errorf("reserving ports: %w", err)
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	ds := make([]*daemon, 0, n)
	for i := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i])}
		if storeDir != "" {
			args = append(args, "-store", fmt.Sprintf("%s/node%d", storeDir, i))
		}
		if n > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			args = append(args, "-advertise", urls[i], "-peers", strings.Join(peers, ","))
		}
		d := &daemon{cmd: exec.Command(bin, args...), url: urls[i], done: make(chan struct{})}
		d.cmd.Stdout = &d.logs
		d.cmd.Stderr = &d.logs
		// Should the benchmark die without stopping it, the kernel does.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			stopAll(ds)
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() { _ = d.cmd.Wait(); close(d.done) }()
		ds = append(ds, d)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range ds {
		if err := d.waitHealthy(deadline); err != nil {
			stopAll(ds)
			return nil, err
		}
	}
	return ds, nil
}

func (d *daemon) waitHealthy(deadline time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return fmt.Errorf("lattold at %s exited during start-up: %s", d.url, d.logs.String())
		default:
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lattold at %s not healthy in time: %v", d.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the node with SIGTERM (its documented shutdown path) and waits
// for it to exit, killing it if the drain overruns.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// scrape reads the node's /metrics into a name{labels} → value map.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.url, err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics parses Prometheus plaintext exposition lines.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// procStat is a process's cumulative CPU time and peak resident set.
type procStat struct {
	cpu   time.Duration
	hwmKB float64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTick = 100

// readProcStat reads utime+stime (all threads, live and exited) from
// /proc/<pid>/stat and VmHWM from /proc/<pid>/status.
func readProcStat(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTick
	s, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(s), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.Fields(rest)
			if len(kb) > 0 {
				ps.hwmKB, _ = strconv.ParseFloat(kb[0], 64)
			}
		}
	}
	return ps, nil
}

// clusterStat sums readProcStat over the nodes.
func clusterStat(ds []*daemon) (procStat, error) {
	var sum procStat
	for _, d := range ds {
		ps, err := readProcStat(d.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += ps.cpu
		sum.hwmKB += ps.hwmKB
	}
	return sum, nil
}

// resetPeakRSS restarts every node's VmHWM from its current resident set
// (writing 5 to /proc/<pid>/clear_refs), so a later reading is the peak of
// what ran since, not of start-up: the surrogate grid build sets that, by
// where the collector happens to run in it.
func resetPeakRSS(ds []*daemon) error {
	for _, d := range ds {
		if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0); err != nil {
			return fmt.Errorf("resetting the peak RSS of %s: %w", d.url, err)
		}
	}
	return nil
}

// takePeakRSS returns the nodes' summed VmHWM in MB, the peak since the last
// reset, and resets it for the next phase.
func takePeakRSS(ds []*daemon) (float64, error) {
	st, err := clusterStat(ds)
	if err != nil {
		return 0, err
	}
	return st.hwmKB / 1024, resetPeakRSS(ds)
}

// hostCPU is the machine's cumulative CPU time split from /proc/stat, in
// clock ticks: steal is time the hypervisor ran something else while a
// vCPU wanted to run.
type hostCPU struct{ steal, total float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}
