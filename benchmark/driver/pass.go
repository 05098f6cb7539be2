package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// pass is the outcome of one connection: the whole stream sent, the
// write side half-closed, derived lines read up to the trailer.
type pass struct {
	// wall runs from the first byte sent to the trailer's arrival.
	wall time.Duration
	// latMs holds one sample per derived line of a paced pass: arrival
	// minus the scheduled send time of the line's closing tick.
	latMs []float64
	// genLate is the furthest the paced writer started a tick behind
	// its schedule.
	genLate time.Duration
	out     digest
	// trailer holds the key=value fields of the `#stats` line.
	trailer map[string]string
}

// passTimeout bounds one pass so that a wedged server fails the run
// instead of hanging it; the slowest pass measured takes under 3 s.
const passTimeout = 60 * time.Second

// runPass drives one connection. With period 0 the stream is written
// in one go (closed loop: the caller starts the next pass when this
// one returns). With period > 0, tick i is written at t0 + i*period
// whatever the server's progress, and the half-close follows at
// t0 + len(ticks)*period (open loop).
func runPass(addr string, s *stream, period time.Duration) (*pass, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(passTimeout))
	tc := conn.(*net.TCPConn)

	p := &pass{}
	t0 := time.Now()
	readErr := make(chan error, 1)
	go func() { readErr <- p.read(conn, s, t0, period) }()

	writeErr := p.write(tc, s, t0, period)
	if writeErr == nil {
		writeErr = tc.CloseWrite()
	}
	if writeErr != nil {
		// Unblock the reader; its error is the less telling one.
		_ = conn.Close()
		<-readErr
		return nil, fmt.Errorf("send: %w", writeErr)
	}
	if err := <-readErr; err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pass) write(w io.Writer, s *stream, t0 time.Time, period time.Duration) error {
	if period == 0 {
		_, err := w.Write(s.data)
		return err
	}
	for i, tk := range s.ticks {
		due := t0.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		if late := time.Since(due); late > p.genLate {
			p.genLate = late
		}
		if _, err := w.Write(s.data[tk.off:tk.end]); err != nil {
			return err
		}
	}
	time.Sleep(time.Until(t0.Add(time.Duration(len(s.ticks)) * period)))
	return nil
}

// read consumes the server's reply up to EOF. It stamps each line's
// arrival before doing anything else with it.
func (p *pass) read(r io.Reader, s *stream, t0 time.Time, period time.Duration) error {
	br := bufio.NewReaderSize(r, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			if errors.Is(err, io.EOF) && len(line) == 0 {
				break
			}
			return fmt.Errorf("read reply: %w", err)
		}
		line = line[:len(line)-1]
		if bytes.HasPrefix(line, []byte("#")) {
			kind, rest, _ := strings.Cut(string(line), " ")
			switch kind {
			case "#stats":
				p.wall = now.Sub(t0)
				p.trailer = map[string]string{}
				for _, f := range strings.Fields(rest) {
					k, v, _ := strings.Cut(f, "=")
					p.trailer[k] = v
				}
			case "#error":
				return fmt.Errorf("server reported: %s", rest)
			}
			continue
		}
		if period > 0 {
			_, t, err := lineTime(line)
			if err != nil {
				return fmt.Errorf("derived line: %w", err)
			}
			due := t0.Add(time.Duration(s.closingTick(t)) * period)
			p.latMs = append(p.latMs, float64(now.Sub(due))/1e6)
		}
		p.out.add(line)
	}
	if p.trailer == nil {
		return errors.New("connection closed without a #stats trailer")
	}
	return nil
}

// trailerInt returns a numeric trailer field, or -1.
func (p *pass) trailerInt(key string) int {
	n, err := strconv.Atoi(p.trailer[key])
	if err != nil {
		return -1
	}
	return n
}
