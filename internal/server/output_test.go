package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// tickEvents is the tick size of the output-path tests: the reader
// closes a batch only at a tick boundary past 512 events, so a tick of
// this size is handed to the engine as soon as the first event of the
// next tick has arrived, and what the tests time is the output path.
const tickEvents = 512

// readingTicks renders ticks 1..n of serverSrc input: sensors
// 0..tickEvents-1 report once per tick, at 50 degrees unless hot(tick,
// sensor) says 95.
func readingTicks(n int, hot func(tick, sensor int) bool) [][]string {
	ticks := make([][]string, n)
	for ts := 1; ts <= n; ts++ {
		for s := 0; s < tickEvents; s++ {
			temp := 50
			if hot(ts, s) {
				temp = 95
			}
			ticks[ts-1] = append(ticks[ts-1], fmt.Sprintf("Reading|%d|%d|%d|%d", ts, s, temp, ts))
		}
	}
	return ticks
}

// derivedByTick runs the ticks in process and returns the derived
// lines keyed by tick, each tick's lines sorted.
func derivedByTick(t *testing.T, ticks [][]string) map[event.Time][]string {
	t.Helper()
	m, err := model.CompileSource(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(m, core.Config{PartitionBy: []string{"sensor"}, Workers: 1, CollectOutputs: true})
	if err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	for _, tk := range ticks {
		for _, ln := range tk {
			in.WriteString(ln + "\n")
		}
	}
	st, err := eng.Run(event.NewReader(strings.NewReader(in.String()), m.Registry))
	if err != nil {
		t.Fatal(err)
	}
	want := map[event.Time][]string{}
	for _, e := range st.Outputs {
		var b bytes.Buffer
		w := event.NewWriter(&b)
		_ = w.Write(e)
		_ = w.Flush()
		want[e.End()] = append(want[e.End()], strings.TrimSuffix(b.String(), "\n"))
	}
	for ts := range want {
		sort.Strings(want[ts])
	}
	return want
}

// lineReader delivers a connection's lines on a channel, so a test can
// wait for output with a deadline and still fail on its own goroutine.
func lineReader(r io.Reader) <-chan string {
	ch := make(chan string, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			ch <- sc.Text()
		}
	}()
	return ch
}

// TestLockstepOutputLatency is the output path's latency contract: a
// client that has sent tick T and the first event of T+1 — all the
// engine needs to close T — receives every derived line of T before it
// sends anything else. Buffered output that waited for later input or
// output to push it out would stall this client for good.
func TestLockstepOutputLatency(t *testing.T) {
	// Every 64th sensor runs hot for one tick; the next tick's normal
	// reading derives its Alarm and switches it back: a few lines per
	// tick, far below any buffer size.
	ticks := readingTicks(8, func(tick, s int) bool { return (s+tick)%64 == 0 })
	want := derivedByTick(t, ticks)
	for _, ec := range []struct {
		name string
		cfg  core.Config
	}{
		{"workers=2", core.Config{PartitionBy: []string{"sensor"}, Workers: 2}},
		{"shards=2", core.Config{PartitionBy: []string{"sensor"}, Shards: 2}},
	} {
		t.Run(ec.name, func(t *testing.T) {
			addr := listenServer(t, ec.cfg)
			conn, err := net.DialTimeout("tcp", addr.String(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			lines := lineReader(conn)
			send := func(lns []string) {
				if _, err := io.WriteString(conn, strings.Join(lns, "\n")+"\n"); err != nil {
					t.Fatal(err)
				}
			}
			send(ticks[0][:1])
			for i, tk := range ticks {
				send(tk[1:])
				if i+1 == len(ticks) {
					break
				}
				send(ticks[i+1][:1])
				ts := event.Time(i + 1)
				got := readLines(t, lines, len(want[ts]), fmt.Sprintf("tick %d", ts))
				sort.Strings(got)
				if strings.Join(got, "\n") != strings.Join(want[ts], "\n") {
					t.Fatalf("tick %d: got %q, want %q", ts, got, want[ts])
				}
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			last := event.Time(len(ticks))
			got := readLines(t, lines, len(want[last])+1, "final tick and trailer")
			if !strings.HasPrefix(got[len(got)-1], "#stats") {
				t.Fatalf("no trailer after the final tick: %q", got)
			}
		})
	}
}

// readLines waits up to 2 s for n lines.
func readLines(t *testing.T, lines <-chan string, n int, what string) []string {
	t.Helper()
	timeout := time.After(2 * time.Second)
	var got []string
	for len(got) < n {
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatalf("%s: connection closed after %d of %d lines", what, len(got), n)
			}
			got = append(got, ln)
		case <-timeout:
			t.Fatalf("%s: %d of %d derived lines arrived within 2s", what, len(got), n)
		}
	}
	return got
}

// listenServer serves serverSrc sessions under cfg on a loopback port.
func listenServer(t *testing.T, cfg core.Config) net.Addr {
	t.Helper()
	m, err := model.CompileSource(serverSrc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Model: m, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	return l.Addr()
}

// TestStalledReaderLosesNothing pauses the client's reads mid-stream
// while the server has more output than the socket buffers hold: the
// server blocks in its writes, and once the client reads again every
// derived line and the trailer arrive.
func TestStalledReaderLosesNothing(t *testing.T) {
	// All sensors hot from tick 1: every reading from tick 2 on derives
	// an Alarm, ~7 KB a tick.
	ticks := readingTicks(40, func(int, int) bool { return true })
	want := 0
	for _, lns := range derivedByTick(t, ticks) {
		want += len(lns)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			addr := listenServer(t, core.Config{PartitionBy: []string{"sensor"}, Workers: 2, Shards: shards})
			conn, err := net.DialTimeout("tcp", addr.String(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			tc := conn.(*net.TCPConn)
			// A small receive window makes the pause reach the server's
			// writes sooner (best effort; the kernel may round it up).
			_ = tc.SetReadBuffer(32 << 10)
			sent := make(chan error, 1)
			go func() {
				var in strings.Builder
				for _, tk := range ticks {
					in.WriteString(strings.Join(tk, "\n") + "\n")
				}
				_, err := io.WriteString(conn, in.String())
				if err == nil {
					err = tc.CloseWrite()
				}
				sent <- err
			}()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			sc := bufio.NewScanner(conn)
			alarms := 0
			var trailer string
			for sc.Scan() {
				ln := sc.Text()
				switch {
				case strings.HasPrefix(ln, "Alarm|"):
					alarms++
					if alarms == want/2 {
						time.Sleep(200 * time.Millisecond)
					}
				case strings.HasPrefix(ln, "#"):
					trailer = ln
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if alarms != want {
				t.Errorf("received %d alarms, want %d", alarms, want)
			}
			if !strings.HasPrefix(trailer, "#stats") || !strings.Contains(trailer, fmt.Sprintf("outputs=%d", want)) {
				t.Errorf("trailer = %q, want #stats with outputs=%d", trailer, want)
			}
		})
	}
}

// deadClientConn is a client that hung up: its reads serve a long
// generated stream, its writes fail once budget bytes have gone out,
// and Close makes every later read fail.
type deadClientConn struct {
	net.Conn // unused methods panic
	src      io.Reader
	read     atomic.Int64
	closed   atomic.Bool

	mu      sync.Mutex
	budget  int
	written []byte
}

func (c *deadClientConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	n, err := c.src.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *deadClientConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.written)+len(p) > c.budget {
		return 0, syscall.EPIPE
	}
	c.written = append(c.written, p...)
	return len(p), nil
}

func (c *deadClientConn) Close() error {
	c.closed.Store(true)
	return nil
}

// hotStream generates ticks 1..ticks of four always-hot sensors
// without holding the stream in memory.
type hotStream struct {
	tick, ticks int
	buf         []byte
}

func (h *hotStream) Read(p []byte) (int, error) {
	for len(h.buf) == 0 {
		if h.tick == h.ticks {
			return 0, io.EOF
		}
		h.tick++
		for s := 0; s < 4; s++ {
			h.buf = fmt.Appendf(h.buf, "Reading|%d|%d|95|%d\n", h.tick, s, h.tick)
		}
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

// TestDeadClientEndsSession hands the server a client whose writes
// fail after 1 000 bytes while its input would run for ~9 MB: the
// session must stop reading soon after the failed write and return
// without a trailer, instead of decoding and deriving the rest of the
// input into a dead socket.
func TestDeadClientEndsSession(t *testing.T) {
	const ticks = 100_000
	total, err := io.Copy(io.Discard, &hotStream{ticks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range []struct {
		name string
		cfg  core.Config
	}{
		{"workers=2", core.Config{PartitionBy: []string{"sensor"}, Workers: 2}},
		{"shards=2", core.Config{PartitionBy: []string{"sensor"}, Shards: 2}},
	} {
		m, err := model.CompileSource(serverSrc)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Model: m, Engine: ec.cfg})
		if err != nil {
			t.Fatal(err)
		}
		conn := &deadClientConn{src: &hotStream{ticks: ticks}, budget: 1000}
		done := make(chan struct{})
		go func() {
			srv.handle(conn)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: session did not end", ec.name)
		}
		if read := conn.read.Load(); read > total/10 {
			t.Errorf("%s: server read %d of %d input bytes after the client hung up", ec.name, read, total)
		}
		if bytes.Contains(conn.written, []byte("#stats")) {
			t.Errorf("%s: trailer written to a dead client", ec.name)
		}
		if got := srv.writes.Value(); got == 0 {
			t.Errorf("%s: output writes not counted", ec.name)
		}
	}
}
