// Package ingestclient is the reconnecting client side of the
// spatialserve streaming ingest protocol (internal/ingest,
// docs/INGEST_PROTOCOL.md). It owns everything the exactly-once
// contract asks of a writer: batches carry a session and a
// monotonically increasing sequence number, unacked batches are held
// until the server acknowledges their WAL commit, and every failure -
// connection killed mid-frame, server crash, overload shed - is
// answered by reconnecting with bounded backoff and resending exactly
// the unacked suffix. The server's persisted watermark drops anything
// it already committed, so the client can retry ambiguity forever
// without double-applying a single record.
package ingestclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	spatial "repro"
	"repro/internal/ingest"
)

// Options configures a Client. BaseURL, Estimator and Session are
// required; everything else has serviceable defaults.
type Options struct {
	// BaseURL is the server's root URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Estimator is the registry key to stream into (tenant-qualified
	// where applicable, e.g. "acme/objects").
	Estimator string
	// Session identifies this writer's sequence space. It must be unique
	// per logical writer and MUST NOT be reused after the estimator is
	// deleted and recreated (the fresh estimator would inherit nothing,
	// but a stale client would resume mid-sequence).
	Session string
	// Window caps unacked batches in flight; 0 adopts the server's
	// advertised credit window.
	Window int
	// MinBackoff and MaxBackoff bound the reconnect backoff (defaults
	// 50ms and 2s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Dial overrides connection establishment - the test hook that lets
	// a chaos harness hand out killable or rerouted connections. Nil
	// dials BaseURL's host over TCP.
	Dial func() (net.Conn, error)
	// DupEvery, when n > 0, writes every nth batch frame twice - a test
	// hook proving the server drops duplicate frames instead of
	// double-applying them.
	DupEvery int
}

// ErrClosed reports Send on a closed client.
var ErrClosed = errors.New("ingestclient: client is closed")

// Client is a streaming ingest session. All methods are safe for
// concurrent use; batches are sequenced in Send call order.
type Client struct {
	opts Options
	host string

	// writeMu serializes frame writes: Send and the run loop's resend
	// may target the same connection, and whoever holds it writes every
	// frame the connection still lacks, in sequence order.
	writeMu sync.Mutex

	mu         sync.Mutex
	cond       *sync.Cond
	unacked    map[uint64][]byte // seq -> encoded batch frame
	nextSeq    uint64
	ackedSeq   uint64
	window     int
	termErr    error
	closed     bool
	conn       net.Conn
	written    uint64 // highest seq written on conn
	reconnects uint64
	resent     uint64

	stop chan struct{}
	done chan struct{}
}

// Dial validates the options and starts the connection manager. It
// returns immediately; the first connection is established in the
// background (Send simply queues until then).
func Dial(opts Options) (*Client, error) {
	if opts.Estimator == "" || opts.Session == "" {
		return nil, errors.New("ingestclient: Estimator and Session are required")
	}
	if len(opts.Session) > ingest.MaxSessionIDBytes {
		return nil, fmt.Errorf("ingestclient: session ID exceeds %d bytes", ingest.MaxSessionIDBytes)
	}
	u, err := url.Parse(opts.BaseURL)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("ingestclient: bad BaseURL %q", opts.BaseURL)
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	c := &Client{
		opts:    opts,
		host:    u.Host,
		unacked: make(map[uint64][]byte),
		window:  opts.Window,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if c.window <= 0 {
		c.window = 32 // replaced by the server's advertisement on hello
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c, nil
}

// Send encodes one batch of records, assigns it the next sequence
// number and queues it, blocking while the in-flight window is full.
// Return does NOT mean durable - it means queued and (when a connection
// is live) written; durability is an ack, observed via Flush or Acked.
// A terminal stream error (bad record, unknown estimator) is returned
// here and poisons the client.
func (c *Client) Send(recs []spatial.UpdateRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var enc []byte
	for _, r := range recs {
		enc = r.AppendBinary(enc)
	}
	c.mu.Lock()
	for c.termErr == nil && !c.closed && len(c.unacked) >= c.window {
		c.cond.Wait()
	}
	if c.termErr != nil {
		err := c.termErr
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextSeq++
	c.unacked[c.nextSeq] = ingest.AppendBatch(nil, c.nextSeq, len(recs), enc)
	c.mu.Unlock()
	// A write error is NOT a Send error: the frame stays unacked and the
	// run loop resends it on the next connection.
	c.writeUnsent()
	return nil
}

// writeUnsent writes, in sequence order, every queued frame the current
// connection has not carried yet (each twice under the duplicate-injection
// hook), closing the connection on error so the run loop reconnects.
// Order matters: the server drops any batch at or below the highest
// sequence number it applied, so a frame overtaken by a later one would
// be acked and lost. Holding writeMu across the loop keeps a concurrent
// Send from overtaking a resend or another Send.
func (c *Client) writeUnsent() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for {
		c.mu.Lock()
		conn, seq := c.conn, c.written+1
		frame, ok := c.unacked[seq]
		if conn == nil || !ok {
			c.mu.Unlock()
			return
		}
		c.written = seq
		c.mu.Unlock()
		if _, err := conn.Write(frame); err != nil {
			conn.Close()
			return
		}
		if c.opts.DupEvery > 0 && seq%uint64(c.opts.DupEvery) == 0 {
			conn.Write(frame)
		}
	}
}

// Flush blocks until every queued batch is acked (durable at the
// server) or the client fails terminally.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.termErr == nil && len(c.unacked) > 0 {
		c.cond.Wait()
	}
	return c.termErr
}

// Acked returns the highest acknowledged sequence number: every batch
// up to and including it is durably applied.
func (c *Client) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackedSeq
}

// Reconnects returns how many times the client re-established the
// connection.
func (c *Client) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Resent returns how many batch frames were retransmitted after
// reconnects.
func (c *Client) Resent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resent
}

// Close stops the client. It does not wait for unacked batches - call
// Flush first when delivery matters.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	if conn != nil {
		conn.Close()
	}
	<-c.done
	return nil
}

// fail records a terminal error and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.termErr == nil {
		c.termErr = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// run is the connection manager: connect, resume, pump acks, and on any
// failure back off and start over. It exits on Close or terminal error.
func (c *Client) run() {
	defer close(c.done)
	attempt := 0
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		conn, br, ha, err := c.connect()
		if err != nil {
			if isTerminal(err) {
				c.fail(err)
				return
			}
			attempt++
			d := c.opts.MinBackoff << min(attempt, 16)
			if d <= 0 || d > c.opts.MaxBackoff {
				d = c.opts.MaxBackoff
			}
			select {
			case <-time.After(d):
			case <-c.stop:
				return
			}
			continue
		}
		attempt = 0
		if !c.resume(conn, ha) {
			conn.Close()
			return
		}
		c.readAcks(conn, br)
		c.mu.Lock()
		if c.conn == conn {
			c.conn = nil
		}
		terminal := c.termErr != nil
		closed := c.closed
		c.mu.Unlock()
		conn.Close()
		if terminal || closed {
			return
		}
	}
}

// resume installs a fresh connection: adopt the server's watermark
// (dropping batches it already committed - the reconnect-resume
// contract), then retransmit the remaining unacked suffix in order.
// Returns false when the client closed concurrently.
func (c *Client) resume(conn net.Conn, ha ingest.HelloAck) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.reconnects++
	c.adoptAckLocked(ha.Watermark)
	if ha.Watermark > c.nextSeq {
		// The session is further along at the server than this client
		// instance ever got: a restarted writer reusing a live session.
		// Adopt the sequence space instead of colliding with it.
		c.nextSeq = ha.Watermark
	}
	if c.opts.Window <= 0 && ha.WindowBatches > 0 {
		c.window = int(ha.WindowBatches)
	}
	// Every unacked batch is above the adopted watermark.
	c.resent += uint64(len(c.unacked))
	c.conn, c.written = conn, c.ackedSeq
	c.cond.Broadcast()
	c.mu.Unlock()
	c.writeUnsent()
	return true
}

// readAcks pumps server frames until the connection dies: acks release
// window credit, retryable errors trigger a reconnect, terminal errors
// poison the client.
func (c *Client) readAcks(conn net.Conn, br *bufio.Reader) {
	for {
		ft, body, err := ingest.ReadFrame(br)
		if err != nil {
			return
		}
		switch ft {
		case ingest.FrameAck:
			seq, err := ingest.DecodeAck(body)
			if err != nil {
				return
			}
			c.mu.Lock()
			c.adoptAckLocked(seq)
			c.cond.Broadcast()
			c.mu.Unlock()
		case ingest.FrameError:
			se, err := ingest.DecodeError(body)
			if err != nil {
				return
			}
			if !se.Code.Retryable() {
				c.fail(se)
			}
			return
		default:
			return
		}
	}
}

// adoptAckLocked drops every batch at or below seq. Caller holds mu.
func (c *Client) adoptAckLocked(seq uint64) {
	for s := range c.unacked {
		if s <= seq {
			delete(c.unacked, s)
		}
	}
	if seq > c.ackedSeq {
		c.ackedSeq = seq
	}
}

// terminalHTTPError marks an upgrade refusal that retrying cannot fix.
type terminalHTTPError struct{ msg string }

// Error returns the refusal.
func (e *terminalHTTPError) Error() string { return e.msg }

// isTerminal reports whether err can never be fixed by reconnecting.
func isTerminal(err error) bool {
	var se *ingest.StreamError
	if errors.As(err, &se) {
		return !se.Code.Retryable()
	}
	var te *terminalHTTPError
	return errors.As(err, &te)
}

// connect dials, upgrades the HTTP connection to the frame protocol and
// completes the hello handshake, returning the connection, its buffered
// reader (which may already hold post-handshake bytes) and the server's
// resume state.
func (c *Client) connect() (net.Conn, *bufio.Reader, ingest.HelloAck, error) {
	var none ingest.HelloAck
	dial := c.opts.Dial
	if dial == nil {
		dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", c.host, 5*time.Second)
		}
	}
	conn, err := dial()
	if err != nil {
		return nil, nil, none, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := fmt.Sprintf("POST /v1/ingest HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n",
		c.host, ingest.Protocol)
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, nil, none, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, none, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		conn.Close()
		msg := fmt.Sprintf("ingestclient: upgrade refused: %s: %s", resp.Status, bytes.TrimSpace(body))
		// 4xx refusals are the caller's mistake and will repeat forever -
		// except overload (429/408) and replica read-only (409), which a
		// failover or drained queue fixes.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 &&
			resp.StatusCode != http.StatusConflict &&
			resp.StatusCode != http.StatusTooManyRequests &&
			resp.StatusCode != http.StatusRequestTimeout {
			return nil, nil, none, &terminalHTTPError{msg}
		}
		return nil, nil, none, errors.New(msg)
	}
	hello := ingest.AppendHello(nil, ingest.Hello{Session: c.opts.Session, Estimator: c.opts.Estimator})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, nil, none, err
	}
	ft, body, err := ingest.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, none, err
	}
	switch ft {
	case ingest.FrameHelloAck:
		ha, err := ingest.DecodeHelloAck(body)
		if err != nil {
			conn.Close()
			return nil, nil, none, err
		}
		conn.SetDeadline(time.Time{})
		return conn, br, ha, nil
	case ingest.FrameError:
		se, derr := ingest.DecodeError(body)
		conn.Close()
		if derr != nil {
			return nil, nil, none, derr
		}
		return nil, nil, none, se
	default:
		conn.Close()
		return nil, nil, none, fmt.Errorf("ingestclient: unexpected frame type %d in handshake", ft)
	}
}
