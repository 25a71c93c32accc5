package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientDoBuffersResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-Test"); got != "yes" {
			t.Errorf("extra header not forwarded, got %q", got)
		}
		w.Header().Set("X-Reply", "pong")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "body")
	}))
	defer srv.Close()
	c := NewClient(2*time.Second, 0)
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil,
		http.Header{"X-Test": []string{"yes"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusTeapot || string(resp.Body) != "body" || resp.Header.Get("X-Reply") != "pong" {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

// TestClientReusesConnections: a round of concurrent Gets larger than
// http.DefaultTransport's idle pool opens its connections once; later
// rounds reuse them and dial nothing.
func TestClientReusesConnections(t *testing.T) {
	const conc, rounds = 16, 4
	var opened atomic.Int32
	// Each request waits until all conc of its round have arrived, so the
	// warm round holds conc connections open at once.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived, round := 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if arrived++; arrived == conc {
			arrived, round = 0, round+1
			cond.Broadcast()
		} else {
			for my := round; round == my; {
				cond.Wait()
			}
		}
		mu.Unlock()
		fmt.Fprint(w, "ok")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewClient(5*time.Second, 0)
	defer c.HTTP.CloseIdleConnections()
	for r := 0; r < rounds; r++ {
		before := opened.Load()
		var wg sync.WaitGroup
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := c.Get(context.Background(), srv.URL, nil); err != nil || resp.Status != http.StatusOK {
					t.Errorf("round %d: get: %v", r, err)
				}
			}()
		}
		wg.Wait()
		if n := opened.Load() - before; r == 0 && n != conc {
			t.Fatalf("warm round opened %d connections, want %d", n, conc)
		} else if r > 0 && n != 0 {
			t.Fatalf("round %d opened %d connections after the warm round, want 0", r, n)
		}
	}
}

func TestClientTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	// LIFO: unblock the handler BEFORE srv.Close waits for it.
	defer srv.Close()
	defer close(block)
	c := NewClient(50*time.Millisecond, 0)
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil); err == nil {
		t.Fatal("expected a timeout error")
	}
}

func TestClientHedgedGet(t *testing.T) {
	// First attempt stalls; the hedge fires and answers.
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprint(w, "hedged")
	}))
	defer srv.Close()
	c := NewClient(5*time.Second, 20*time.Millisecond)
	start := time.Now()
	resp, err := c.Get(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hedged" {
		t.Fatalf("got %q from the wrong attempt", resp.Body)
	}
	if calls.Load() < 2 {
		t.Fatal("hedge attempt never launched")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hedged get took as long as the stalled attempt")
	}
}

func TestClientHedgedGetAllFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // refuse every connection
	c := NewClient(time.Second, 5*time.Millisecond)
	if _, err := c.Get(context.Background(), srv.URL, nil); err == nil {
		t.Fatal("expected an error when every attempt fails")
	}
}

func TestScatterAndFirstError(t *testing.T) {
	boom := errors.New("boom")
	vals, errs := Scatter(5, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i * i, nil
	})
	for i, v := range vals {
		if i != 3 && v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	if !errors.Is(FirstError(errs), boom) {
		t.Fatalf("FirstError = %v", FirstError(errs))
	}
	if FirstError(make([]error, 4)) != nil {
		t.Fatal("FirstError of all-nil should be nil")
	}
}
