package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
)

// Pooled peer connections: the data-plane transport between nodes. A
// node opens a connection to a peer with an HTTP Upgrade on the peer's
// ordinary listener (PeerPath, PeerProtocol) and then speaks
// internal/ingest's frames on it. A call is one request frame written
// and one answer frame read, from the calling goroutine, with one call
// in flight per connection: no reader goroutine, no request IDs, no
// head-of-line rule. Send and Receive split a call in two, so a caller
// can put every peer's request on the wire before it waits for any
// answer.
//
// Idle connections are kept per peer, at most idleConnsPerPeer. A call
// takes the most recently used one, or dials, and gives it back only
// after a clean exchange: a connection that saw an error, a deadline or
// its caller's cancellation is closed, never reused. A call that fails
// on a reused connection before any answer byte (its peer had closed
// it) goes out once more on a fresh connection, so a stale connection
// costs a redial, not a failed call. That resend is safe because every
// request on this transport is an idempotent read.

// PeerPath is the route a peer connection upgrades on.
const PeerPath = "/v1/peer"

// PeerProtocol is the Upgrade token of a peer connection; the trailing
// /1 is the wire-format version. Both ends must run the same build.
const PeerProtocol = "spatial-peer/1"

// Fault is what a Client's Faults hook injects into one peer call.
// The zero Fault injects nothing.
type Fault struct {
	// Err fails the call before anything is sent: the peer is
	// unreachable.
	Err error
	// Delay holds the send back; a call whose deadline passes first
	// fails unsent.
	Delay time.Duration
	// Status, when non-zero, answers the call with an error frame naming
	// this HTTP status instead of sending it: a peer that answers but
	// cannot serve.
	Status int
	// Tear sends the call and then loses the peer's answer mid-transfer:
	// the call fails after the peer served it.
	Tear bool
}

// peerPool holds a Client's idle peer connections. The zero value is
// ready to use.
type peerPool struct {
	mu     sync.Mutex
	closed bool
	peers  map[string]*peerSet // by peer base URL
}

// peerSet is one peer's address, idle connections and dial count.
type peerSet struct {
	host  string // host:port, for dialing and fault matching
	idle  []*peerConn
	dials int
}

// peerConn is one upgraded connection.
type peerConn struct {
	nc net.Conn
	br *bufio.Reader
}

// set returns the peer's entry, creating it on first use.
func (p *peerPool) set(peerURL string) (*peerSet, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps := p.peers[peerURL]; ps != nil {
		return ps, nil
	}
	u, err := url.Parse(peerURL)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("cluster: peer connections need an http://host:port URL, got %q", peerURL)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	if p.peers == nil {
		p.peers = make(map[string]*peerSet)
	}
	ps := &peerSet{host: host}
	p.peers[peerURL] = ps
	return ps, nil
}

// take pops the peer's most recently pooled connection, nil when none
// is idle.
func (p *peerPool) take(ps *peerSet) *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(ps.idle)
	if n == 0 {
		return nil
	}
	pc := ps.idle[n-1]
	ps.idle[n-1] = nil
	ps.idle = ps.idle[:n-1]
	return pc
}

// put pools a connection after a clean exchange, or closes it when the
// pool is closed or the peer already keeps idleConnsPerPeer.
func (p *peerPool) put(ps *peerSet, pc *peerConn) {
	p.mu.Lock()
	if !p.closed && len(ps.idle) < idleConnsPerPeer {
		ps.idle = append(ps.idle, pc)
		pc = nil
	}
	p.mu.Unlock()
	if pc != nil {
		pc.nc.Close()
	}
}

// dial opens and upgrades a new connection to the peer.
func (p *peerPool) dial(ctx context.Context, ps *peerSet, deadline time.Time) (*peerConn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", ps.host)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(deadline)
	pc := &peerConn{nc: nc, br: bufio.NewReader(nc)}
	if err := pc.upgrade(ps.host); err != nil {
		nc.Close()
		return nil, err
	}
	p.mu.Lock()
	ps.dials++
	p.mu.Unlock()
	return pc, nil
}

// upgrade switches a fresh connection to PeerProtocol.
func (pc *peerConn) upgrade(host string) error {
	req := "GET " + PeerPath + " HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + PeerProtocol + "\r\n\r\n"
	if _, err := io.WriteString(pc.nc, req); err != nil {
		return err
	}
	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		return fmt.Errorf("cluster: upgrading a peer connection to %s: %w", host, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), PeerProtocol) {
		return fmt.Errorf("cluster: %s refused the %s upgrade: %s", host, PeerProtocol, resp.Status)
	}
	return nil
}

// close closes every idle connection; connections in use are closed
// when their calls end instead of being pooled.
func (p *peerPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, ps := range p.peers {
		for _, pc := range ps.idle {
			pc.nc.Close()
		}
		ps.idle = nil
	}
}

// Call is one framed exchange with a peer, started by Send and finished
// by Receive.
type Call struct {
	pool     *peerPool
	ctx      context.Context
	ps       *peerSet
	frame    []byte
	deadline time.Time
	fault    Fault
	pc       *peerConn   // the connection the frame went out on
	reused   bool        // pc came from the idle pool
	stop     func() bool // unregisters the cancellation hook of pc
	err      error       // the call failed before any answer
}

// Send starts a call: it writes frame, a complete request frame, to the
// peer at peerURL on a pooled connection, dialing one when none is idle.
// method names the call for the Faults hook. The call is bounded by the
// Client's Timeout and by ctx, whose cancellation ends it. Failures
// surface from Receive, which every Send must be followed by.
func (c *Client) Send(ctx context.Context, peerURL, method string, frame []byte) *Call {
	call := &Call{pool: &c.peers, ctx: ctx, frame: frame, deadline: time.Now().Add(c.timeout())}
	if d, ok := ctx.Deadline(); ok && d.Before(call.deadline) {
		call.deadline = d
	}
	if call.ps, call.err = c.peers.set(peerURL); call.err != nil {
		return call
	}
	if c.Faults != nil {
		call.fault = c.Faults(call.ps.host, method)
		call.err = call.fault.Err
	}
	if call.err == nil && call.fault.Delay == 0 && call.fault.Status == 0 {
		call.send(call.pool.take(call.ps))
	}
	return call
}

// send writes the frame on pc, or on a new connection when pc is nil.
func (call *Call) send(pc *peerConn) {
	call.reused = pc != nil
	if pc == nil {
		if pc, call.err = call.pool.dial(call.ctx, call.ps, call.deadline); call.err != nil {
			return
		}
	}
	pc.nc.SetDeadline(call.deadline)
	if call.ctx.Done() != nil {
		nc := pc.nc
		call.stop = context.AfterFunc(call.ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	}
	call.pc = pc
	if _, err := pc.nc.Write(call.frame); err != nil {
		call.err = call.release(err)
	}
}

// Receive waits for the call's answer and returns its frame type and
// body, reading at most limit body bytes. An error means no usable
// answer arrived; an answer of type ingest.FrameError is the peer's own
// refusal and is the caller's to interpret.
func (call *Call) Receive(limit uint64) (ingest.FrameType, []byte, error) {
	if call.fault.Status != 0 {
		msg := fmt.Sprintf("injected status %d", call.fault.Status)
		return ingest.FrameError, append([]byte{byte(ingest.CodeInternal)}, msg...), nil
	}
	if call.fault.Delay > 0 && call.err == nil {
		if call.err = call.hold(call.fault.Delay); call.err == nil {
			call.send(call.pool.take(call.ps))
		}
	}
	ft, body, answered, err := call.read(limit)
	if err != nil && !answered && call.reused && call.ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The idle connection had been closed by its peer.
		call.err = nil
		call.send(nil)
		ft, body, _, err = call.read(limit)
	}
	return ft, body, err
}

// read reads the answer to the frame sent on call.pc and pools the
// connection after a clean exchange. answered reports whether any
// answer byte arrived.
func (call *Call) read(limit uint64) (ft ingest.FrameType, body []byte, answered bool, err error) {
	if call.err != nil {
		return 0, nil, false, call.err
	}
	if _, err = call.pc.br.Peek(1); err == nil {
		answered = true
		ft, body, err = ingest.ReadFrameLimit(call.pc.br, limit)
		if err == nil && call.fault.Tear {
			err = fmt.Errorf("cluster: answer from %s torn: %w", call.ps.host, io.ErrUnexpectedEOF)
		}
	}
	return ft, body, answered, call.release(err)
}

// release ends the call's use of its connection: pooled after a clean
// exchange that its cancellation hook never touched, closed otherwise.
// It returns err, naming the caller's cancellation when that ended the
// call.
func (call *Call) release(err error) error {
	pc := call.pc
	call.pc = nil
	hooked := call.stop != nil && !call.stop()
	call.stop = nil
	if err == nil && !hooked {
		call.pool.put(call.ps, pc)
		return nil
	}
	pc.nc.Close()
	if err != nil && call.ctx.Err() != nil {
		return fmt.Errorf("cluster: call to %s: %w", call.ps.host, call.ctx.Err())
	}
	return err
}

// hold waits out an injected delay before the send; a deadline that
// passes first fails the call unsent.
func (call *Call) hold(d time.Duration) error {
	ctx, cancel := context.WithDeadline(call.ctx, call.deadline)
	defer cancel()
	select {
	case <-ctx.Done():
		return fmt.Errorf("cluster: call to %s held back: %w", call.ps.host, ctx.Err())
	case <-time.After(d):
		return nil
	}
}

// PeerStats reports how many connections this client has dialed to the
// peer at peerURL and how many of them are idle in its pool.
func (c *Client) PeerStats(peerURL string) (dials, idle int) {
	c.peers.mu.Lock()
	defer c.peers.mu.Unlock()
	if ps := c.peers.peers[peerURL]; ps != nil {
		return ps.dials, len(ps.idle)
	}
	return 0, 0
}

// Close closes the client's idle peer connections. Calls still in
// flight finish, and every later call runs on a connection of its own
// that is closed when it ends.
func (c *Client) Close() {
	c.peers.close()
}

// PeerConns is the serving end of peer connections: it upgrades them,
// answers their frames, and closes them all on Close. The zero value is
// ready to use.
type PeerConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve upgrades r to a peer connection and answers its request frames
// in order, each with the complete frame answer returns, from this
// goroutine. It returns when the peer closes the connection, a frame
// cannot be read, or Close is called.
func (p *PeerConns) Serve(w http.ResponseWriter, r *http.Request, answer func(ingest.FrameType, []byte) []byte) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), PeerProtocol) {
		w.Header().Set("Upgrade", PeerProtocol)
		http.Error(w, "this endpoint speaks "+PeerProtocol+"; set the Upgrade header", http.StatusUpgradeRequired)
		return
	}
	nc, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, "connection cannot be hijacked: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer nc.Close()
	if !p.add(nc) {
		return
	}
	defer p.remove(nc)
	// A hijacked connection keeps the server's deadlines; a peer
	// connection has none between frames.
	nc.SetDeadline(time.Time{})
	rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + PeerProtocol + "\r\nConnection: Upgrade\r\n\r\n")
	if rw.Flush() != nil {
		return
	}
	for {
		ft, body, err := ingest.ReadFrame(rw.Reader)
		if err != nil {
			return
		}
		if _, err := nc.Write(answer(ft, body)); err != nil {
			return
		}
	}
}

// add registers a served connection, refusing it once closed.
func (p *PeerConns) add(nc net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if p.conns == nil {
		p.conns = make(map[net.Conn]struct{})
	}
	p.conns[nc] = struct{}{}
	return true
}

// remove forgets a served connection.
func (p *PeerConns) remove(nc net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, nc)
}

// Drop closes every connection being served; their peers redial.
func (p *PeerConns) Drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for nc := range p.conns {
		nc.Close()
	}
}

// Close closes every connection being served and refuses new ones.
func (p *PeerConns) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.Drop()
}
