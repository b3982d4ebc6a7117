package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// proc is one lbmm process the benchmark started. stop kills it and waits
// until it has exited.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
}

// startLbmm launches `lbmm <args> -addr <free loopback port>`. The child
// is killed if the benchmark dies first.
func startLbmm(bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lbmm %s: %w", args[0], err)
	}
	p := &proc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// freeAddr returns a loopback address with a port the kernel just handed
// out; the listener is closed so the child can bind it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls until probe succeeds, the process exits or ctx ends.
func (p *proc) waitReady(ctx context.Context, probe func() error) error {
	for {
		err := probe()
		if err == nil {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("lbmm %s exited before it was ready: %v", p.cmd.Args[1], err)
		case <-ctx.Done():
			return fmt.Errorf("lbmm %s not ready: %w", p.cmd.Args[1], err)
		case <-time.After(time.Millisecond):
		}
	}
}

// healthy probes GET /healthz.
func healthy(addr string) func() error {
	return func() error {
		resp, err := probeClient.Get("http://" + addr + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: %s", resp.Status)
		}
		return nil
	}
}

// countingConn counts the bytes a client connection reads and writes.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// probeClient issues the benchmark's control requests (health, counters).
var probeClient = &http.Client{Timeout: 5 * time.Second}

// newHTTPClient returns a client holding at most one keep-alive connection;
// when n is non-nil the connection's bytes are added to it.
func newHTTPClient(n *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil || n == nil {
					return c, err
				}
				return countingConn{c, n}, nil
			},
		},
	}
}
