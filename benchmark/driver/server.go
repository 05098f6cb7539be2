package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// server is one `caesar -listen` process under test.
type server struct {
	cmd   *exec.Cmd
	addr  string // stream sessions
	admin string // admin HTTP surface, "" unless requested
	// setup is the time from exec to the first accepted connection.
	setup time.Duration

	mu      sync.Mutex
	log     []string // stderr lines, kept for failure reports
	drained chan struct{}
}

// live holds every server started and not yet stopped, so that an
// early exit can still end them all.
var live = struct {
	sync.Mutex
	set map[*server]struct{}
}{set: map[*server]struct{}{}}

// stopAll ends whatever servers are still running.
func stopAll() {
	live.Lock()
	rest := make([]*server, 0, len(live.set))
	for s := range live.set {
		rest = append(rest, s)
	}
	live.Unlock()
	for _, s := range rest {
		s.stop()
	}
}

// The two announcements the CLI prints on stderr once it is bound.
const (
	announceListen = "caesar: serving stream sessions on "
	announceAdmin  = "caesar: admin on "
)

// startServer execs the binary with args plus `-listen 127.0.0.1:0`
// (and `-admin 127.0.0.1:0` when admin is set), waits for the address
// announcements and connects once, so the returned server is known
// to accept.
func startServer(bin string, args []string, admin bool) (*server, error) {
	args = append(append([]string(nil), args...), "-listen", "127.0.0.1:0")
	if admin {
		args = append(args, "-admin", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	live.set[s] = struct{}{}
	live.Unlock()
	type bound struct{ addr, admin string }
	ready := make(chan bound, 1)
	go func() {
		defer close(s.drained)
		var b bound
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.log) < 200 {
				s.log = append(s.log, line)
			}
			s.mu.Unlock()
			if a, ok := strings.CutPrefix(line, announceListen); ok {
				b.addr = a
			}
			if a, ok := strings.CutPrefix(line, announceAdmin); ok {
				b.admin = a
			}
			if !sent && b.addr != "" && (!admin || b.admin != "") {
				sent = true
				ready <- b
			}
		}
		if !sent {
			ready <- bound{}
		}
	}()
	select {
	case b := <-ready:
		if b.addr == "" {
			s.stop()
			return nil, fmt.Errorf("%s exited before announcing its address:\n%s", bin, s.stderr())
		}
		s.addr, s.admin = b.addr, b.admin
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce its address within 30 s:\n%s", bin, s.stderr())
	}
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("connect to %s: %w", s.addr, err)
	}
	s.setup = time.Since(began)
	// An empty session: half-close at once and drain the trailer so
	// the server is idle again before the first pass.
	_ = conn.(*net.TCPConn).CloseWrite()
	_, _ = io.Copy(io.Discard, conn)
	_ = conn.Close()
	return s, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func (s *server) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user plus system time the process has used so
// far, from /proc/<pid>/stat (fields 14 and 15, in clock ticks of
// 1/100 s on Linux).
func (s *server) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name, field 2, may hold spaces; count from its ")".
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest) // f[0] is field 3
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// stop kills the process and returns once it has ended and its
// stderr is drained.
func (s *server) stop() {
	live.Lock()
	_, running := live.set[s]
	delete(live.set, s)
	live.Unlock()
	if !running {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

func (s *server) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}
