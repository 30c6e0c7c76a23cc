package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Process hygiene.  Everything a run leaves outside its own memory — child
// processes and the scratch directory — is registered here when it is
// created and released by cleanupAll, which every exit path calls: the end
// of a workload, a failed set-up or check, and a signal.

var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onCleanup(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

// cleanupAll runs the registered releases, newest first, once each.
func cleanupAll() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// newScratch creates the run's scratch directory (database files, daemon
// logs, and the daemon binaries when they are built here).
func newScratch(cfg config) (string, error) {
	if cfg.tmpDir != "" {
		if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
			return "", err
		}
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "bench-"+cfg.workload+"-")
	if err != nil {
		return "", err
	}
	onCleanup(func() { os.RemoveAll(dir) })
	return dir, nil
}

// binaries locates the two daemons, compiling them once into the scratch
// directory unless a directory of prebuilt ones was given.  Compiling is not
// part of setup_s; it is reported as bench.build_s.
type binaries struct {
	daemon, router string
	buildSeconds   float64
}

func daemonBinaries(cfg config, scratch string) (binaries, error) {
	dir := cfg.binDir
	var b binaries
	if dir == "" {
		dir = filepath.Join(scratch, "bin")
		start := time.Now()
		cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"repro/cmd/spatialjoind", "repro/cmd/spatialjoinrouter")
		if out, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("building the daemons (run from the bench directory, or pass -bin): %v\n%s", err, out)
		}
		b.buildSeconds = time.Since(start).Seconds()
	}
	b.daemon = filepath.Join(dir, "spatialjoind")
	b.router = filepath.Join(dir, "spatialjoinrouter")
	for _, p := range []string{b.daemon, b.router} {
		if _, err := os.Stat(p); err != nil {
			return b, fmt.Errorf("daemon binary: %w", err)
		}
	}
	return b, nil
}

// proc is one child daemon listening on a loopback port.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{} // closed when the process has been waited for

	stopOnce sync.Once
}

// startProc starts bin on a free loopback port (passed as -addr) and waits
// until GET /stats answers.  Picking a port by binding and releasing it can
// lose a race with another process, so a child that dies before it is ready
// is retried on a fresh port.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, err := startProcOnce(bin, args, logPath)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startProcOnce(bin string, args []string, logPath string) (*proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // every child ends by SIGKILL; its exit status says nothing
		close(p.done)
	}()
	onCleanup(p.kill)
	if err := p.waitReady(15 * time.Second); err != nil {
		p.kill()
		tail, _ := os.ReadFile(logPath)
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return nil, fmt.Errorf("%s: %w; log tail: %s", filepath.Base(bin), err, bytes.TrimSpace(tail))
	}
	return p, nil
}

// waitReady polls GET /stats until it answers 200 or the child exits.
func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("exited before it was ready")
		default:
		}
		resp, err := hc.Get(p.url + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("not ready in time")
}

// kill sends SIGKILL and waits for the child to be reaped.  It is safe to
// call more than once.
func (p *proc) kill() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Kill() // fails only if the child has already exited
	})
	<-p.done
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (p *proc) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds reads the child's user+system CPU time from /proc (clock ticks
// of 1/100 s on Linux).
func (p *proc) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, 12th and 13th after the name.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }
