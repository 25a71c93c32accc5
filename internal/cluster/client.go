package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Client is the cluster layer's client to its peers: pooled peer
// connections for the data-plane reads (Send, see peer.go) and HTTP for
// everything else (Do). Every attempt carries a per-node timeout. No
// call is hedged: a read costs one exchange per peer, and a duplicated
// update would be applied twice - sketch counters, unlike idempotent KV
// puts, would keep both.
type Client struct {
	// HTTP is the underlying HTTP client. Peers answer node-to-node
	// snapshot reads identity-encoded, whatever Accept-Encoding the
	// transport sends, so partition transfers pay no compression.
	HTTP *http.Client
	// Timeout bounds one attempt against one node.
	Timeout time.Duration
	// Faults, when set, decides the fault injected into each peer call
	// from the peer's host:port and the call's method (tests).
	Faults func(peer, method string) Fault

	peers peerPool
}

// DefaultTimeout is the per-attempt timeout used when a Client does not
// set one.
const DefaultTimeout = 10 * time.Second

// idleConnsPerPeer is the idle-connection pool kept per peer, both by
// NewTransport and for peer connections. A router has one call in
// flight to one owner per client request, times the concurrent client
// requests; past the pool, a finished connection is closed and the next
// call dials again (http.DefaultTransport keeps 2).
const idleConnsPerPeer = 64

// NewTransport returns the HTTP transport of NewClient: a clone of
// http.DefaultTransport that keeps idleConnsPerPeer idle connections per
// peer, with no cap across peers. Fault injection wraps it like any
// http.RoundTripper.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0
	t.MaxIdleConnsPerHost = idleConnsPerPeer
	return t
}

// NewClient returns a Client on a NewTransport with the given per-attempt
// timeout (0 means DefaultTimeout).
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{HTTP: &http.Client{Transport: NewTransport()}, Timeout: timeout}
}

// Response is the buffered result of one cluster request.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Header holds the response headers.
	Header http.Header
	// Body is the fully read response body.
	Body []byte
}

// Do runs one attempt of method against url with the given body and extra
// headers, bounded by the per-attempt timeout. The response body is read
// fully; non-2xx statuses are returned as a Response, not an error, so
// callers can inspect cluster-protocol headers on rejections.
func (c *Client) Do(ctx context.Context, method, url string, body []byte, hdr http.Header) (*Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s %s response: %w", method, url, err)
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// timeout resolves the per-attempt timeout.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// http resolves the underlying client.
func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Scatter runs fn(i) for i in [0, n) concurrently and returns the
// per-index results and errors - the gather half of scatter-gather.
// Index 0 runs on the calling goroutine, so one call starts none. It
// always waits for every call; callers cancel via ctx inside fn.
func Scatter[T any](n int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i)
		}(i)
	}
	if n > 0 {
		out[0], errs[0] = fn(0)
	}
	wg.Wait()
	return out, errs
}

// FirstError returns the first non-nil error of errs, annotated with its
// index, or nil.
func FirstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: call %d: %w", i, err)
		}
	}
	return nil
}
