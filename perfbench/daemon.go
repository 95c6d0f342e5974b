package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"madpipe/internal/serve"
)

// live holds the daemons not yet stopped, so an interrupted benchmark
// can stop its children before it exits (see stopAll).
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// stopAll stops every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.stop()
	}
}

// daemon is a madpiped child process on an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	base   string
	client *http.Client

	stopOnce sync.Once
	stopErr  error
}

// startDaemon launches madpiped with the given flags and returns once it
// answers /healthz, along with the time that took.
func startDaemon(cfg config, conns int, flags ...string) (*daemon, time.Duration, error) {
	if cfg.daemon == "" {
		return nil, 0, errors.New("no madpiped binary given (-daemon)")
	}
	runDir := filepath.Join(cfg.root, ".bench_build", "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(runDir, fmt.Sprintf("madpiped-%d-%d.addr", os.Getpid(), time.Now().UnixNano()))
	defer os.Remove(addrFile)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	cmd := exec.Command(cfg.daemon, args...)
	// The daemon logs to stderr so the benchmark's result line stays the
	// last line of standard output.
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// If the benchmark dies without reaching stop (a kill, a panic), the
	// kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start madpiped: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	live.Lock()
	live.set[d] = true
	live.Unlock()
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	deadline := t0.Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("madpiped did not become healthy within 30s")
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.stop()
			return nil, 0, fmt.Errorf("madpiped exited during start-up: %v", err)
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0), nil
				}
			}
		}
		// Poll finely: a daemon without warm-up is up in a few
		// milliseconds, and each poll adds up to one interval to its
		// measured set-up time.
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain does not finish. Later calls return the first result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		defer func() {
			live.Lock()
			delete(live.set, d)
			live.Unlock()
		}()
		d.client.CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.exited:
		case <-time.After(60 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("madpiped did not drain within 60s; killed")
		}
	})
	return d.stopErr
}

// killedByTerm reports whether a daemon's exit error is death by SIGTERM.
func killedByTerm(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// reply is one HTTP response as the benchmark checks it.
type reply struct {
	status int
	memo   string
	fp     string
	body   []byte
}

func (d *daemon) post(ctx context.Context, path string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, memo: resp.Header.Get(serve.HeaderMemo), fp: resp.Header.Get(serve.HeaderFingerprint), body: b}, nil
}

// collect runs two garbage collections in the daemon through its pprof
// heap endpoint. sync.Pool keeps an object through one collection and
// drops it at the second, so afterwards the daemon holds no pooled DP
// table.
func (d *daemon) collect() error {
	for i := 0; i < 2; i++ {
		resp, err := d.client.Get(d.base + "/debug/pprof/heap?gc=1")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/debug/pprof/heap: status %d", resp.StatusCode)
		}
	}
	return nil
}

// stats scrapes /v1/stats.
func (d *daemon) stats() (serve.ServerStats, error) {
	var st serve.ServerStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
