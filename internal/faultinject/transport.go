package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
)

// Transport returns an http.RoundTripper that applies the injector's
// rules to every request sent by the named node. base nil means
// http.DefaultTransport. The destination node is resolved from the
// request URL's host via NameHost registrations.
func (in *Injector) Transport(from string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, from: from, base: base}
}

// transport is the rule-applying RoundTripper.
type transport struct {
	in   *Injector
	from string
	base http.RoundTripper
}

// refusedError mimics a dial failure so callers exercise the same error
// paths a dead peer produces.
type refusedError struct{ host string }

// Error describes the fabricated dial failure.
func (e *refusedError) Error() string {
	return fmt.Sprintf("faultinject: dial tcp %s: connection refused", e.host)
}

// Timeout reports false: a refused connection is not a timeout.
func (e *refusedError) Timeout() bool { return false }

// Temporary reports true, matching net.OpError behavior for refusals.
func (e *refusedError) Temporary() bool { return true }

// RoundTrip applies the first matching rule, then (for non-failing kinds)
// forwards to the base transport. Failing kinds return before forwarding;
// see the package comment for why that discipline matters.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	to := t.in.nodeName(req.URL.Host)
	r, ok := t.in.match(t.from, to, req.Method, false, req.Method+" "+req.URL.Path)
	if !ok {
		return t.base.RoundTrip(req)
	}
	switch r.Kind {
	case KindLatency:
		d := r.Latency
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-req.Context().Done():
			// Deadline fired mid-spike: fail WITHOUT forwarding so the
			// request is definitely not applied.
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: req.Context().Err()}
		case <-timer.C:
		}
		return t.base.RoundTrip(req)
	case KindRefuse:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &refusedError{host: req.URL.Host}
	case KindStatus:
		if req.Body != nil {
			req.Body.Close()
		}
		status := r.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := []byte(`{"error":"injected"}`)
		return &http.Response{
			Status:        strconv.Itoa(status) + " " + http.StatusText(status),
			StatusCode:    status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case KindTruncate:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatingBody{rc: resp.Body, remaining: truncateAt(resp.ContentLength)}
		resp.ContentLength = -1
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// PeerFaults returns the fault hook for the peer calls made by the named
// node (cluster.Client.Faults): the same rule table as Transport,
// matched by (from, to, method) with the destination resolved through
// NameHost, and each kind keeping its meaning on the connection -
// refuse fails the call before anything is sent, status answers it with
// an error instead of sending it, latency holds the send back (a call
// whose deadline passes first fails unsent), and truncate tears the
// answer after the peer served it.
func (in *Injector) PeerFaults(from string) func(peer, method string) cluster.Fault {
	return func(peer, method string) cluster.Fault {
		r, ok := in.match(from, in.nodeName(peer), method, false, method+" "+cluster.PeerPath+" call")
		if !ok {
			return cluster.Fault{}
		}
		switch r.Kind {
		case KindLatency:
			d := r.Latency
			if d <= 0 {
				d = 50 * time.Millisecond
			}
			return cluster.Fault{Delay: d}
		case KindRefuse:
			return cluster.Fault{Err: &refusedError{host: peer}}
		case KindStatus:
			status := r.Status
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			return cluster.Fault{Status: status}
		case KindTruncate:
			return cluster.Fault{Tear: true}
		}
		return cluster.Fault{}
	}
}

// truncateAt picks how many bytes of an n-byte body survive truncation:
// half of a known length, a small prefix of an unknown one.
func truncateAt(n int64) int64 {
	if n > 1 {
		return n / 2
	}
	return 16
}

// truncatingBody delivers a prefix of the wrapped body, then fails with
// io.ErrUnexpectedEOF - a torn transfer, not a clean short read.
type truncatingBody struct {
	rc        io.ReadCloser
	remaining int64
}

// Read yields bytes until the budget is spent, then errors.
func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.rc.Read(p)
	t.remaining -= int64(n)
	if err == io.EOF {
		// The real body ended inside the budget; deliver the clean EOF.
		return n, err
	}
	if t.remaining <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Close closes the wrapped body.
func (t *truncatingBody) Close() error { return t.rc.Close() }
