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

// Client is the fan-out HTTP client of the cluster layer. Every attempt
// carries a per-node timeout; idempotent reads can additionally be hedged:
// if the first attempt has not answered within HedgeDelay, a second
// attempt is launched against the same URL and the first response wins.
// Mutations are never hedged - a duplicated update would be applied twice,
// and sketch counters, unlike idempotent KV puts, would keep both.
type Client struct {
	// HTTP is the underlying client. Peers answer node-to-node snapshot
	// reads identity-encoded, whatever Accept-Encoding the transport
	// sends, so partition transfers pay no compression.
	HTTP *http.Client
	// Timeout bounds one attempt against one node.
	Timeout time.Duration
	// HedgeDelay is how long Get waits before launching a hedged second
	// attempt. Zero disables hedging.
	HedgeDelay time.Duration
}

// DefaultTimeout is the per-attempt timeout used when a Client does not
// set one.
const DefaultTimeout = 10 * time.Second

// idleConnsPerPeer is the idle-connection pool NewTransport keeps per
// peer. A router has up to its partition count of GETs in flight to one
// owner per client request, times the concurrent client requests; past
// the pool, a finished connection is closed and the next request dials
// again (http.DefaultTransport keeps 2).
const idleConnsPerPeer = 64

// NewTransport returns the fan-out transport: a clone of
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
// timeout (0 means DefaultTimeout) and hedge delay (0 disables hedging).
func NewClient(timeout, hedgeDelay time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{HTTP: &http.Client{Transport: NewTransport()}, Timeout: timeout, HedgeDelay: hedgeDelay}
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

// Get fetches url with hedging: if the first attempt has not answered
// within HedgeDelay, a second identical attempt starts and the first
// response (success or HTTP error) wins. Only safe for idempotent
// requests; the loser's context is cancelled.
func (c *Client) Get(ctx context.Context, url string, hdr http.Header) (*Response, error) {
	if c.HedgeDelay <= 0 {
		return c.Do(ctx, http.MethodGet, url, nil, hdr)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels whichever attempt loses
	type result struct {
		resp *Response
		err  error
	}
	ch := make(chan result, 2)
	attempt := func() {
		resp, err := c.Do(ctx, http.MethodGet, url, nil, hdr)
		ch <- result{resp, err}
	}
	go attempt()
	timer := time.NewTimer(c.HedgeDelay)
	defer timer.Stop()
	launched := 1
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			launched--
			if launched == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			go attempt()
			launched++
		}
	}
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
// per-index results and errors - the gather half of scatter-gather. It
// always waits for every call; callers cancel via ctx inside fn.
func Scatter[T any](n int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i)
		}(i)
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
