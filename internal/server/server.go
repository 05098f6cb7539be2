// Package server exposes a CAESAR engine over a TCP line protocol:
// each connection is an independent stream session. The client sends
// events in the engine's line format (TypeName|time|values...), the
// server streams derived complex events back in the same format, and
// finishes with a "#stats ..." trailer when the client closes its
// write side.
//
// The trailer is a single line of space-separated key=value fields:
//
//	#stats events=N outputs=N transitions=N partitions=N suspended=N
//	       max_latency=D p99_latency=D ctx:NAME=A/S ... batches=N
//
// where max_latency/p99_latency are Go duration strings over the
// arrival-to-derivation latency distribution, and each ctx:NAME=A/S
// field reports one context type's window activations (A) and
// suspensions (S) summed over all partitions, sorted by context name.
// Clients should ignore fields they do not recognize; new fields are
// only ever appended.
//
// Sessions are isolated: every connection gets a fresh engine run
// (own partitions, context windows and history), so one misbehaving
// stream cannot corrupt another. Events within a connection must be
// in non-decreasing time order, as everywhere in the engine. Only the
// decoder's buffers outlive a session: one idle event.Reader, with its
// scan buffer and event slabs, is recycled into the next session once
// the run that used it has returned.
//
// Derived lines are buffered and flushed whenever the engine has
// delivered everything it holds (event.LineSink on the engine's
// OnIdle hook), so a result reaches the client without waiting for
// later input or output. The first failed write ends the session: the
// server closes the connection, stops decoding the client's input and
// sends no trailer.
//
// The server also exposes its live telemetry over HTTP: AdminHandler
// serves Prometheus /metrics, JSON /statusz and /debug/pprof from the
// shared telemetry registry (see internal/telemetry). All sessions
// publish into one registry; metric families registered per run
// replace their predecessors, so live gauges reflect the most
// recently started session while counters from the final report stay
// scrapeable until then. The server's own counters,
// caesar_output_writes_total and caesar_output_bytes_total, cover
// every session and count what was written to the connections.
package server

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/runtime"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Model is the compiled CAESAR model shared by all sessions.
	Model *model.Model
	// Engine is the per-session engine configuration, resolved once by
	// New (the /buildz summary shows the resolved values).
	// CollectOutputs, OnOutput and OnIdle are managed by the server and
	// must be unset. When Engine.Telemetry is nil the server creates
	// its own registry; the effective registry is available via
	// Registry/AdminHandler.
	Engine core.Config
}

// Server serves stream sessions.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	// writes and bytes count what every session wrote to its
	// connection: derived lines, trailers and error lines.
	writes telemetry.Counter
	bytes  telemetry.Counter

	// idle holds at most one idle session decoder, so a server keeps
	// one reader's buffers however many sessions ran at once. Run
	// returns only after every goroutine of the run has exited, so a
	// returned reader's arena is referenced by nothing but a dropped
	// engine.
	idle chan *event.Reader

	mu       sync.Mutex
	sessions int
}

// New validates and resolves the configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("server: nil model")
	}
	if cfg.Engine.CollectOutputs || cfg.Engine.OnOutput != nil || cfg.Engine.OnIdle != nil {
		return nil, fmt.Errorf("server: CollectOutputs/OnOutput/OnIdle are managed per session")
	}
	var err error
	if cfg.Engine, err = cfg.Engine.Resolve(); err != nil {
		return nil, err
	}
	if cfg.Engine.Telemetry == nil {
		cfg.Engine.Telemetry = telemetry.NewRegistry()
	}
	// Compile once to surface configuration errors before Serve.
	if _, err := core.NewEngine(cfg.Model, cfg.Engine); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: cfg.Engine.Telemetry, idle: make(chan *event.Reader, 1)}
	s.reg.Register("caesar_output_writes_total",
		"Write calls on session connections (derived lines, trailers, errors).", &s.writes)
	s.reg.Register("caesar_output_bytes_total",
		"Bytes written to session connections.", &s.bytes)
	return s, nil
}

// Registry returns the telemetry registry all sessions publish into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Sessions reports how many sessions have been served or are active.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// Serve accepts connections until the listener closes. Each
// connection is handled on its own goroutine; Serve returns the
// listener's accept error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.sessions++
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()

	out := connWriter{conn: conn, s: s}
	sink := event.NewLineSink(out)
	cfg := s.cfg.Engine
	cfg.OnOutput = sink.Emit
	cfg.OnIdle = sink.Idle
	eng, err := core.NewEngine(s.cfg.Model, cfg)
	if err != nil {
		fmt.Fprintf(out, "#error %v\n", err)
		return
	}
	var rd *event.Reader
	select {
	case rd = <-s.idle:
		rd.Reset(conn)
	default:
		rd = event.NewReader(conn, s.cfg.Model.Registry)
	}
	st, err := eng.Run(rd)
	rd.Reset(nil)
	select {
	case s.idle <- rd:
	default: // another session's reader is already idle
	}
	if sink.Close() != nil {
		return // the client is gone; out has closed the connection
	}
	if err != nil {
		fmt.Fprintf(out, "#error %v\n", err)
		return
	}
	fmt.Fprintf(out, "#stats events=%d outputs=%d transitions=%d partitions=%d suspended=%d max_latency=%s p99_latency=%s%s batches=%d\n",
		st.Events, st.OutputCount, st.Transitions, st.Partitions,
		st.SuspendedSkips, st.MaxLatency, st.P99Latency, contextFields(st.Contexts),
		st.Batches)
}

// connWriter is a session's output connection: it counts writes and
// bytes into the server's metrics and closes the connection on the
// first failed write. Closing ends the session early: the engine's
// reader fails on its next read, so a client that hung up does not
// have the rest of its buffered input decoded and derived into a dead
// socket.
type connWriter struct {
	conn net.Conn
	s    *Server
}

func (c connWriter) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.s.writes.Inc()
	c.s.bytes.Add(uint64(n))
	if err != nil {
		_ = c.conn.Close() // the write error is what the caller reports
	}
	return n, err
}

// contextFields renders the per-context trailer fields (" ctx:NAME=A/S"
// per context, sorted by name; empty when no windows moved).
func contextFields(ctxs map[string]runtime.ContextStats) string {
	if len(ctxs) == 0 {
		return ""
	}
	names := make([]string, 0, len(ctxs))
	for name := range ctxs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		cs := ctxs[name]
		b = fmt.Appendf(b, " ctx:%s=%d/%d", name, cs.Activations, cs.Suspensions)
	}
	return string(b)
}
