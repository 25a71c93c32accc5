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
	c := NewClient(2 * time.Second)
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil,
		http.Header{"X-Test": []string{"yes"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusTeapot || string(resp.Body) != "body" || resp.Header.Get("X-Reply") != "pong" {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

// TestClientReusesConnections: a round of concurrent GETs larger than
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
	c := NewClient(5 * time.Second)
	defer c.HTTP.CloseIdleConnections()
	for r := 0; r < rounds; r++ {
		before := opened.Load()
		var wg sync.WaitGroup
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil); err != nil || resp.Status != http.StatusOK {
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
	c := NewClient(50 * time.Millisecond)
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil); err == nil {
		t.Fatal("expected a timeout error")
	}
}

// TestScatterAndFirstError: every index runs exactly once, whatever n
// (index 0 on the caller), and results and errors land in place.
func TestScatterAndFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, n := range []int{0, 1, 3, 5} {
		var runs [5]atomic.Int32
		vals, errs := Scatter(n, func(i int) (int, error) {
			runs[i].Add(1)
			if i == n-1 {
				return 0, fmt.Errorf("index %d: %w", i, boom)
			}
			return i * i, nil
		})
		if len(vals) != n || len(errs) != n {
			t.Fatalf("n=%d: %d values and %d errors", n, len(vals), len(errs))
		}
		for i := 0; i < n; i++ {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
			if i < n-1 && (vals[i] != i*i || errs[i] != nil) {
				t.Fatalf("n=%d: index %d = (%d, %v)", n, i, vals[i], errs[i])
			}
		}
		if n > 0 && (!errors.Is(errs[n-1], boom) || !errors.Is(FirstError(errs), boom)) {
			t.Fatalf("n=%d: errs[%d] = %v, FirstError = %v", n, n-1, errs[n-1], FirstError(errs))
		}
		if n == 0 && FirstError(errs) != nil {
			t.Fatalf("n=0: FirstError = %v", FirstError(errs))
		}
	}
	if FirstError(make([]error, 4)) != nil {
		t.Fatal("FirstError of all-nil should be nil")
	}
}
