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
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
)

// tollWire renders a Linear Road stream for m as wire lines.
func tollWire(t testing.TB, m *model.Model, duration int64) []byte {
	t.Helper()
	gen := linearroad.DefaultConfig()
	gen.Segments, gen.Duration = 4, duration
	evs, err := linearroad.Generate(gen, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	w := event.NewWriter(&b)
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// result is one session's response: its derived lines sorted, and its
// last line with the wall-clock latency fields removed.
type result struct {
	derived []string
	trailer string
}

// sendAll runs one session over input and splits its response.
func sendAll(t *testing.T, addr net.Addr, input []byte) result {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr.String(), 2*time.Second)
	if err != nil {
		t.Error(err)
		return result{}
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	go func() {
		// Write while reading: derived lines stream back mid-input.
		conn.Write(input)
		conn.(*net.TCPConn).CloseWrite()
	}()
	var r result
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if ln := sc.Text(); strings.HasPrefix(ln, "#") {
			r.trailer = ln
		} else {
			r.derived = append(r.derived, ln)
		}
	}
	sort.Strings(r.derived)
	var kept []string
	for _, f := range strings.Fields(r.trailer) {
		if !strings.HasPrefix(f, "max_latency=") && !strings.HasPrefix(f, "p99_latency=") {
			kept = append(kept, f)
		}
	}
	r.trailer = strings.Join(kept, " ")
	return r
}

func sameResult(t *testing.T, name string, got, want result) {
	t.Helper()
	if got.trailer != want.trailer || strings.Join(got.derived, "\n") != strings.Join(want.derived, "\n") {
		t.Errorf("%s: %d derived lines and trailer %q, want %d and %q",
			name, len(got.derived), got.trailer, len(want.derived), want.trailer)
	}
}

// idleReader returns the server's idle session reader, leaving it
// idle; it fails the test when no reader is idle.
func idleReader(t *testing.T, srv *Server) *event.Reader {
	t.Helper()
	select {
	case rd := <-srv.idle:
		srv.idle <- rd
		return rd
	default:
		t.Fatal("no idle session reader")
		return nil
	}
}

// TestSessionReuse runs clean, failing, aborted and shorter sessions
// in sequence, then two at once, through one server, whose session
// decoders are recycled: every clean session must answer exactly as
// the first did, and the shorter stream exactly as on a fresh server.
// Every sequential session after the first must run on the reader the
// previous one returned, the shorter stream on the one an aborted
// session returned.
func TestSessionReuse(t *testing.T) {
	m, err := model.CompileSource(linearroad.ModelSource(1))
	if err != nil {
		t.Fatal(err)
	}
	start := func() (*Server, net.Addr) {
		srv, err := New(Config{Model: m, Engine: core.Config{PartitionBy: linearroad.PartitionBy(), Shards: 2}})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		return srv, l.Addr()
	}
	srv, addr := start()
	full := tollWire(t, m, 1200)
	short := tollWire(t, m, 300)
	half := full[:bytes.IndexByte(full[len(full)/2:], '\n')+len(full)/2+1]

	first := sendAll(t, addr, full)
	if len(first.derived) == 0 || !strings.HasPrefix(first.trailer, "#stats ") {
		t.Fatalf("clean session: %d derived lines, trailer %q", len(first.derived), first.trailer)
	}
	// A session returns its reader before its last line goes out, and
	// only a session decoding through rd moves rd's lifetime count of
	// reclaimed slabs.
	rd := idleReader(t, srv)
	_, reclaimed := rd.ArenaChunks()
	recycled := func(name string) {
		t.Helper()
		if idleReader(t, srv) != rd {
			t.Fatalf("%s: another reader is idle", name)
		}
		_, n := rd.ArenaChunks()
		if n == reclaimed {
			t.Errorf("%s did not run on the recycled reader", name)
		}
		reclaimed = n
	}

	bad := sendAll(t, addr, append(append([]byte(nil), half...), "PositionReport|x|1\n"...))
	if want := fmt.Sprintf("#error event: line %d: bad time \"x\"", bytes.Count(half, []byte("\n"))+1); bad.trailer != want {
		t.Errorf("malformed session ends %q, want %q", bad.trailer, want)
	}
	recycled("malformed session")

	// The hung-up session finds no idle reader and builds one, so its
	// return marks the session's end; the next sessions reuse it.
	<-srv.idle
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(full[:1<<14]) // fits the socket buffers, ends mid-line
	conn.Close()             // hang up without reading anything
	select {
	case rd = <-srv.idle:
		srv.idle <- rd
	case <-time.After(30 * time.Second):
		t.Fatal("hung-up session never returned its reader")
	}
	_, reclaimed = rd.ArenaChunks()

	_, fresh := start()
	sameResult(t, "shorter stream", sendAll(t, addr, short), sendAll(t, fresh, short))
	recycled("shorter stream")
	sameResult(t, "clean session again", sendAll(t, addr, full), first)
	recycled("clean session again")

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sameResult(t, fmt.Sprintf("concurrent session %d", i), sendAll(t, addr, full), first)
		}()
	}
	wg.Wait()
	idleReader(t, srv)
}

// BenchmarkServerSessions serves sequential sessions of one stream on
// one server over loopback TCP: per op, one connection, its decode and
// engine run, and its trailer. With -benchmem, B/op is what a session
// costs beyond its bytes, guarded in scripts/ci.sh.
func BenchmarkServerSessions(b *testing.B) {
	m, err := model.CompileSource(serverSrc)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Model: m, Engine: core.Config{PartitionBy: []string{"sensor"}, Workers: 2}})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go srv.Serve(l)
	var input []byte
	for ts := 1; ts <= 300; ts++ {
		for s := 0; s < 64; s++ {
			input = fmt.Appendf(input, "Reading|%d|%d|50|%d\n", ts, s, ts)
		}
	}
	resp := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(input); err != nil {
			b.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		n, err := io.ReadFull(conn, resp)
		if err != io.ErrUnexpectedEOF || !bytes.HasPrefix(resp[:n], []byte("#stats events=19200 ")) {
			b.Fatalf("response %q, %v", resp[:n], err)
		}
		conn.Close()
	}
}
