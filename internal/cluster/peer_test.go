package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
)

// echoPeer serves peer connections that answer each request frame with
// its body under frame type +1; a body of "block" waits for release (or
// the connection's end) first.
func echoPeer(t *testing.T) (*httptest.Server, *PeerConns, chan struct{}) {
	t.Helper()
	conns := &PeerConns{}
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerPath {
			http.NotFound(w, r)
			return
		}
		conns.Serve(w, r, func(ft ingest.FrameType, body []byte) []byte {
			if string(body) == "block" {
				<-release
			}
			return ingest.AppendFrame(nil, ft+1, body)
		})
	}))
	t.Cleanup(func() {
		conns.Close()
		srv.Close()
	})
	return srv, conns, release
}

// peerCall makes one call and requires the echoed answer.
func peerCall(t *testing.T, c *Client, url, body string) {
	t.Helper()
	ft, got, err := c.Send(context.Background(), url, http.MethodGet, ingest.AppendFrame(nil, 7, []byte(body))).Receive(1 << 10)
	if err != nil || ft != 8 || string(got) != body {
		t.Fatalf("call %q: frame %d %q, %v", body, ft, got, err)
	}
}

// TestPeerCallsReuseOneConnection: sequential calls ride one pooled
// connection, and an answer larger than its limit is refused.
func TestPeerCallsReuseOneConnection(t *testing.T) {
	srv, _, _ := echoPeer(t)
	c := NewClient(5 * time.Second)
	defer c.Close()
	for i := 0; i < 20; i++ {
		peerCall(t, c, srv.URL, "ping")
	}
	if dials, idle := c.PeerStats(srv.URL); dials != 1 || idle != 1 {
		t.Fatalf("20 sequential calls: %d dials, %d idle, want 1 and 1", dials, idle)
	}
	big := bytes.Repeat([]byte("x"), 100)
	if _, _, err := c.Send(context.Background(), srv.URL, http.MethodGet, ingest.AppendFrame(nil, 7, big)).Receive(99); err == nil {
		t.Fatal("an answer over its limit was accepted")
	}
	if _, idle := c.PeerStats(srv.URL); idle != 0 {
		t.Fatalf("the connection of a refused answer went back to the pool (%d idle)", idle)
	}
}

// TestPeerStaleConnectionRedials: a pooled connection its peer closed
// costs a redial inside the call, not a failed call.
func TestPeerStaleConnectionRedials(t *testing.T) {
	srv, conns, _ := echoPeer(t)
	c := NewClient(5 * time.Second)
	defer c.Close()
	peerCall(t, c, srv.URL, "one")
	conns.Drop()
	peerCall(t, c, srv.URL, "two")
	if dials, idle := c.PeerStats(srv.URL); dials != 2 || idle != 1 {
		t.Fatalf("after a stale connection: %d dials, %d idle, want 2 and 1", dials, idle)
	}
}

// TestPeerIdleCap: calls in flight at once each hold a connection; when
// they end, the peer keeps idleConnsPerPeer of them and closes the rest.
func TestPeerIdleCap(t *testing.T) {
	srv, _, _ := echoPeer(t)
	c := NewClient(5 * time.Second)
	defer c.Close()
	n := idleConnsPerPeer + 6
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.Send(context.Background(), srv.URL, http.MethodGet, ingest.AppendFrame(nil, 1, []byte("x")))
	}
	for i, call := range calls {
		if _, _, err := call.Receive(16); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if dials, idle := c.PeerStats(srv.URL); dials != n || idle != idleConnsPerPeer {
		t.Fatalf("%d calls in flight: %d dials, %d idle, want %d and %d", n, dials, idle, n, idleConnsPerPeer)
	}
	c.Close()
	if _, idle := c.PeerStats(srv.URL); idle != 0 {
		t.Fatalf("Close left %d idle connections", idle)
	}
	peerCall(t, c, srv.URL, "after close")
	if _, idle := c.PeerStats(srv.URL); idle != 0 {
		t.Fatal("a closed client pooled a connection")
	}
}

// TestPeerDeadlineAndCancellation: a call ends at its deadline or at its
// caller's cancellation, and neither connection is reused.
func TestPeerDeadlineAndCancellation(t *testing.T) {
	srv, _, release := echoPeer(t)
	defer close(release)
	c := NewClient(50 * time.Millisecond)
	defer c.Close()
	block := ingest.AppendFrame(nil, 1, []byte("block"))
	if _, _, err := c.Send(context.Background(), srv.URL, http.MethodGet, block).Receive(16); err == nil {
		t.Fatal("a call past its deadline answered")
	}
	c.Timeout = 5 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	call := c.Send(ctx, srv.URL, http.MethodGet, block)
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, _, err := call.Receive(16); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not end the call")
	}
	peerCall(t, c, srv.URL, "fresh")
	if dials, idle := c.PeerStats(srv.URL); dials != 3 || idle != 1 {
		t.Fatalf("%d dials, %d idle, want 3 and 1: a timed-out or cancelled connection was reused", dials, idle)
	}
}

// TestPeerUpgradeRefused: a listener that does not speak PeerProtocol
// fails the call.
func TestPeerUpgradeRefused(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	c := NewClient(time.Second)
	if _, _, err := c.Send(context.Background(), srv.URL, http.MethodGet, ingest.AppendFrame(nil, 1, nil)).Receive(16); err == nil {
		t.Fatal("a call through a refused upgrade succeeded")
	}
	if _, _, err := c.Send(context.Background(), "https://example.invalid", http.MethodGet, nil).Receive(16); err == nil {
		t.Fatal("a non-http peer URL was accepted")
	}
}
