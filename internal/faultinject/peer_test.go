package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
)

// startPeer runs a peer-connection server that counts the request frames
// it answered and echoes each one back; it is named "b" to the injector.
func startPeer(t *testing.T, in *Injector) (string, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	conns := &cluster.PeerConns{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Serve(w, r, func(ft ingest.FrameType, body []byte) []byte {
			served.Add(1)
			return ingest.AppendFrame(nil, ft, body)
		})
	}))
	t.Cleanup(func() {
		conns.Close()
		srv.Close()
	})
	in.NameHost(strings.TrimPrefix(srv.URL, "http://"), "b")
	return srv.URL, &served
}

// peerClient is node "a"'s client, its peer calls routed through in.
func peerClient(in *Injector, timeout time.Duration) *cluster.Client {
	c := cluster.NewClient(timeout)
	c.Faults = in.PeerFaults("a")
	return c
}

// callPeer makes one GET-labelled peer call.
func callPeer(c *cluster.Client, url string) (ingest.FrameType, []byte, error) {
	return c.Send(context.Background(), url, http.MethodGet, ingest.AppendFrame(nil, 9, []byte("read"))).Receive(1 << 10)
}

// TestPeerRefuseSendsNothing: a refused call fails with the dial-style
// error before anything reaches the peer.
func TestPeerRefuseSendsNothing(t *testing.T) {
	in := New(1)
	url, served := startPeer(t, in)
	in.Add(Rule{From: "a", To: "b", Kind: KindRefuse})
	c := peerClient(in, time.Second)
	defer c.Close()
	_, _, err := callPeer(c, url)
	var refused *refusedError
	if !errors.As(err, &refused) {
		t.Fatalf("refused call: %v", err)
	}
	if served.Load() != 0 {
		t.Fatal("a refused call reached the peer")
	}
	if dials, _ := c.PeerStats(url); dials != 0 {
		t.Fatalf("a refused call dialed %d connections", dials)
	}
	if ev := in.Events(); len(ev) != 1 || ev[0].Kind != "refuse" || ev[0].From != "a" || ev[0].To != "b" {
		t.Fatalf("event log %+v", ev)
	}
}

// TestPeerStatusAnswersError: a status fault turns the call into the
// peer's error answer without sending it.
func TestPeerStatusAnswersError(t *testing.T) {
	in := New(1)
	url, served := startPeer(t, in)
	in.Add(Rule{To: "b", Methods: "GET", Kind: KindStatus, Status: 502})
	c := peerClient(in, time.Second)
	defer c.Close()
	ft, body, err := callPeer(c, url)
	if err != nil || ft != ingest.FrameError {
		t.Fatalf("status fault: frame %d, %v; want an error frame", ft, err)
	}
	se, err := ingest.DecodeError(body)
	if err != nil || !strings.Contains(se.Msg, "502") {
		t.Fatalf("error answer %+v, %v", se, err)
	}
	if served.Load() != 0 {
		t.Fatal("a status-faulted call reached the peer")
	}
}

// TestPeerLatencyDelaysOrFailsUnsent: latency holds the send back; a
// call whose deadline passes inside the delay fails and is never sent.
func TestPeerLatencyDelaysOrFailsUnsent(t *testing.T) {
	in := New(1)
	url, served := startPeer(t, in)
	id := in.Add(Rule{To: "b", Methods: "GET", Kind: KindLatency, Latency: 60 * time.Millisecond})
	c := peerClient(in, time.Second)
	defer c.Close()
	start := time.Now()
	if ft, body, err := callPeer(c, url); err != nil || ft != 9 || string(body) != "read" {
		t.Fatalf("delayed call: frame %d %q, %v", ft, body, err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("delayed call answered in %v", d)
	}
	in.Remove(id)
	in.Add(Rule{To: "b", Kind: KindLatency, Latency: time.Second})
	c.Timeout = 30 * time.Millisecond
	before := served.Load()
	if _, _, err := callPeer(c, url); err == nil {
		t.Fatal("a call held past its deadline answered")
	}
	if served.Load() != before {
		t.Fatal("a call that timed out inside its delay was sent")
	}
}

// TestPeerTruncateTearsServedAnswer: the peer serves the call, and the
// answer is lost on the way back; the torn connection is not reused.
func TestPeerTruncateTearsServedAnswer(t *testing.T) {
	in := New(1)
	url, served := startPeer(t, in)
	id := in.Add(Rule{To: "b", Methods: "GET", Kind: KindTruncate})
	c := peerClient(in, time.Second)
	defer c.Close()
	if _, _, err := callPeer(c, url); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn answer: %v, want io.ErrUnexpectedEOF", err)
	}
	if served.Load() != 1 {
		t.Fatalf("the peer served %d calls, want 1", served.Load())
	}
	if _, idle := c.PeerStats(url); idle != 0 {
		t.Fatal("the torn connection went back to the pool")
	}
	in.Remove(id)
	if _, _, err := callPeer(c, url); err != nil {
		t.Fatalf("call after the rule was removed: %v", err)
	}
}

// TestPeerRulesMatchMethod: a rule restricted to another method leaves
// grouped reads (GET) alone.
func TestPeerRulesMatchMethod(t *testing.T) {
	in := New(1)
	url, served := startPeer(t, in)
	in.Add(Rule{To: "b", Methods: "POST", Kind: KindRefuse})
	c := peerClient(in, time.Second)
	defer c.Close()
	if _, _, err := callPeer(c, url); err != nil || served.Load() != 1 {
		t.Fatalf("a POST-only rule faulted a GET call: %v", err)
	}
}
