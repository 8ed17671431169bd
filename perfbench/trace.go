package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out
// once the run ends. Only the run's main goroutine adds spans: traffic
// streams and the server-side connection wrappers buffer their own
// timestamps, which are joined in afterwards.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) request() int64 {
	t.reqs++
	return t.reqs
}

func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// addSequential lays phases out back to back inside parent, starting at
// its start: the layout of QueryStats' traverse/retrieve/integrate split
// inside a DB.PNN call.
func (t *tracer) addSequential(parent int, req int64, start time.Time, names []string, durs []time.Duration) {
	at := start
	for i, name := range names {
		t.add(name, parent, req, at, at.Add(durs[i]))
		at = at.Add(durs[i])
	}
}

// layerTime aggregates the spans of one name: how many, their summed
// duration, and their summed self time (duration minus the part the
// span's children cover; children never overlap).
type layerTime struct {
	n           int
	total, self time.Duration
}

// layerMap is layerTime by span name.
type layerMap map[string]*layerTime

func (t *tracer) layers() layerMap {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(layerMap)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered[i])
	}
	return out
}

// mean is the mean duration (or self time) in µs of the named spans, 0
// when none were recorded.
func (ls layerMap) mean(name string, self bool) float64 {
	lt := ls[name]
	if lt == nil || lt.n == 0 {
		return 0
	}
	d := lt.total
	if self {
		d = lt.self
	}
	return us(d) / float64(lt.n)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers prints every span name's count, mean duration and mean
// self time.
func (t *tracer) printLayers(w io.Writer) {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for name := range ls {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-22s %8s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, name := range names {
		lt := ls[name]
		fmt.Fprintf(w, "# %-22s %8d %12.2f %12.2f\n", name, lt.n,
			us(lt.total)/float64(lt.n), us(lt.self)/float64(lt.n))
	}
}

// servedFrame is one request as the server's socket saw it: when its
// first bytes were read and when its response frame went to the socket.
type servedFrame struct{ arrive, written time.Time }

// tracedListener wraps the server's listener so that every accepted
// connection timestamps request frames and responses. It sits outside
// the server: it only watches bytes on the socket.
type tracedListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[string]*tracedConn // by remote address
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c}
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = tc
	l.mu.Unlock()
	return tc, nil
}

// served returns the frames of the connection whose client end has the
// given local address.
func (l *tracedListener) served(clientAddr string) []servedFrame {
	l.mu.Lock()
	tc := l.conns[clientAddr]
	l.mu.Unlock()
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]servedFrame(nil), tc.served...)
}

// tracedConn finds frame boundaries in the bytes the server reads (a
// frame is a little-endian u32 length and that many bytes) and pairs
// each request with the next response written: the server answers a
// connection's requests in order, one Write per response frame.
type tracedConn struct {
	net.Conn
	// Read side, touched only by the server's decode goroutine.
	hdr  [4]byte
	nhdr int
	body int

	mu       sync.Mutex
	arrivals []time.Time // requests whose response is not written yet
	served   []servedFrame
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.scan(b[:n], time.Now())
	}
	return n, err
}

func (c *tracedConn) scan(b []byte, now time.Time) {
	for len(b) > 0 {
		if c.body > 0 {
			k := min(c.body, len(b))
			c.body -= k
			b = b[k:]
			continue
		}
		if c.nhdr == 0 {
			c.mu.Lock()
			c.arrivals = append(c.arrivals, now)
			c.mu.Unlock()
		}
		k := copy(c.hdr[c.nhdr:], b)
		c.nhdr += k
		b = b[k:]
		if c.nhdr == len(c.hdr) {
			c.body = int(binary.LittleEndian.Uint32(c.hdr[:]))
			c.nhdr = 0
		}
	}
}

// Write stamps the response before handing it to the socket, so the
// stamp is in place by the time the client can have read the response.
func (c *tracedConn) Write(b []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	if len(c.arrivals) > 0 {
		c.served = append(c.served, servedFrame{c.arrivals[0], now})
		c.arrivals = c.arrivals[1:]
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// addWire joins a traced stream's client-side requests with the frames
// the server saw on that connection: each request becomes a client span
// (the round trip) with the server span (arrival to response written)
// as its child, so the client span's self time is the wire transit.
func (t *tracer) addWire(s *stream, served []servedFrame) error {
	if len(served) != s.skip+len(s.spans) {
		return fmt.Errorf("trace: connection %s: server saw %d frames, client sent %d", s.addr, len(served), s.skip+len(s.spans))
	}
	for i, cs := range s.spans {
		req := t.request()
		id := t.add("client."+opNames[cs.kind], -1, req, cs.start, cs.end)
		f := served[s.skip+i]
		t.add("server."+opNames[cs.kind], id, req, f.arrive, f.written)
	}
	return nil
}
