package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/internal/cluster"
)

// The keyed-update soak: three real server processes on default flags
// take a steady stream of Idempotency-Key updates for four minutes, more
// keys through each node than the session table held before keys had a
// window of their own. Every bounded resource must plateau - each node's
// session marks, RSS and open descriptors, sampled as 15 s peaks - no
// update may be refused, and the final cluster snapshot must be
// bit-equal to the in-process reference. CI runs it as a step of its
// own; -short skips it.

const (
	soakDuration = 4 * time.Minute
	soakSample   = 15 * time.Second
	// soakRate is the keyed updates sent per second across the cluster,
	// spread evenly over soakWorkers closed-loop writers and the routers.
	soakRate    = 1200
	soakWorkers = 6
	// soakKeysPerNode is the least number of keys each router must carry:
	// the session table's cap before keys expired by their own window.
	soakKeysPerNode = 65536
	soakDom         = 1 << 10
)

// soakSamples is one sample of every node's bounded resources.
type soakSamples struct {
	sessions, rssKB, fds []float64
}

// max returns the node-wise maximum of two samples (an empty one is none).
func (a soakSamples) max(b soakSamples) soakSamples {
	if a.sessions == nil {
		return b
	}
	for _, p := range [][2][]float64{{a.sessions, b.sessions}, {a.rssKB, b.rssKB}, {a.fds, b.fds}} {
		for i := range p[0] {
			p[0][i] = max(p[0][i], p[1][i])
		}
	}
	return a
}

// TestSoakKeyedUpdatesPlateau drives the soak described above.
func TestSoakKeyedUpdatesPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server subprocesses and runs for minutes")
	}
	cl, err := cluster.LaunchProcCluster(cluster.ProcClusterSpec{
		Binary:     os.Args[0],
		Env:        []string{crashHelperEnv + "=1"},
		Nodes:      3,
		Partitions: DefaultPartitions,
		DataRoot:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sizing := spatial.Sizing{Instances: 16, Groups: 2}
	mustDo(t, "POST", cl.URLs[0]+"/v1/estimators", mustJSON(t, createRequest{Name: "r", Kind: "range",
		Config: configRequest{Dims: 1, DomainSize: soakDom, Seed: 1, Instances: sizing.Instances, Groups: sizing.Groups}}), http.StatusCreated)
	ref, err := spatial.NewRangeEstimator(spatial.RangeConfig{Dims: 1, DomainSize: soakDom, Seed: 1, Sizing: sizing})
	if err != nil {
		t.Fatal(err)
	}

	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: soakWorkers}}
	defer hc.CloseIdleConnections()
	var (
		sent     = make([]atomic.Int64, len(cl.URLs))
		refused  atomic.Int64
		failOnce sync.Once
		failErr  error
		failed   = make(chan struct{})
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for w := 0; w < soakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := w % len(cl.URLs)
			u := cl.URLs[node] + "/v1/estimators/r/update"
			rng := rand.New(rand.NewSource(int64(w)))
			tick := time.NewTicker(time.Second * soakWorkers / soakRate)
			defer tick.Stop()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				lo := rng.Uint64() % soakDom
				hi := lo + rng.Uint64()%(soakDom-lo)
				body := []byte(fmt.Sprintf(`{"rects":[[[%d,%d]]]}`, lo, hi))
				if err := soakUpdate(hc, u, fmt.Sprintf("soak-%d-%d", w, n), body, &refused); err != nil {
					failOnce.Do(func() { failErr = err; close(failed) })
					return
				}
				if err := ref.Insert(geo.Span1D(lo, hi)); err != nil {
					failOnce.Do(func() { failErr = err; close(failed) })
					return
				}
				sent[node].Add(1)
			}
		}(w)
	}

	// Each 15 s sample is the peak of once-a-second readings: a node's
	// marks rise by a quarter between its 15 s sweeps, so a single reading
	// would depend on where it fell in that cycle.
	var samples []soakSamples
	var interval soakSamples
	tick := time.NewTicker(time.Second)
	start := time.Now()
sampling:
	for reads := 1; len(samples) < int(soakDuration/soakSample); reads++ {
		select {
		case <-tick.C:
		case <-failed:
			break sampling
		}
		interval = interval.max(readSoak(t, cl))
		if reads%int(soakSample/time.Second) == 0 {
			samples = append(samples, interval)
			t.Logf("%3.0fs: sessions %v, rss kB %v, fds %v", time.Since(start).Seconds(), interval.sessions, interval.rssKB, interval.fds)
			interval = soakSamples{}
		}
	}
	tick.Stop()
	close(stop)
	wg.Wait()
	if failErr != nil {
		t.Fatalf("after %s: %v (%d refusals with 429)", time.Since(start).Round(time.Second), failErr, refused.Load())
	}
	if n := refused.Load(); n > 0 {
		t.Errorf("%d keyed updates were refused with 429", n)
	}
	for i := range sent {
		if n := sent[i].Load(); n <= soakKeysPerNode {
			t.Errorf("node %s routed %d keys, want more than %d", cl.IDs[i], n, soakKeysPerNode)
		}
	}

	// Samples k = 1, 2, ... are taken k*15 s into the run: the second
	// minute is k = 5..8, and nothing after it may exceed that minute's
	// peak by more than 10%.
	perMinute := int(time.Minute / soakSample)
	for _, res := range []struct {
		name string
		of   func(soakSamples) []float64
	}{
		{"session marks", func(s soakSamples) []float64 { return s.sessions }},
		{"RSS kB", func(s soakSamples) []float64 { return s.rssKB }},
		{"open fds", func(s soakSamples) []float64 { return s.fds }},
	} {
		for i, id := range cl.IDs {
			peak := 0.0
			for _, s := range samples[perMinute : 2*perMinute] {
				if v := res.of(s); v != nil {
					peak = max(peak, v[i])
				}
			}
			for k, s := range samples[2*perMinute:] {
				if v := res.of(s); v != nil && v[i] > 1.1*peak {
					t.Errorf("node %s: %s at %s = %.0f, above 110%% of the second minute's peak %.0f",
						id, res.name, time.Duration(2*perMinute+k+1)*soakSample, v[i], peak)
				}
			}
		}
	}

	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range cl.URLs {
		if got := mustDo(t, "GET", u+"/v1/estimators/r/snapshot", nil, http.StatusOK); !bytes.Equal(got, want) {
			t.Errorf("node %s: the cluster snapshot differs from the in-process reference", cl.IDs[i])
		}
	}
	total := int64(0)
	for i := range sent {
		total += sent[i].Load()
	}
	t.Logf("%d keyed updates in %s (%.0f/s)", total, soakDuration, float64(total)/soakDuration.Seconds())
}

// soakUpdate sends one keyed update, resending the same key after any
// failure (a resend of an applied key is deduplicated), and counts the
// 429 answers.
func soakUpdate(hc *http.Client, u, key string, body []byte, refused *atomic.Int64) error {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		req, rerr := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, derr := hc.Do(req)
		if derr != nil {
			err = derr
			continue
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			refused.Add(1)
		}
		err = fmt.Errorf("update %s: status %d: %s", key, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return err
}

// readSoak reads every node's session-mark gauge and, on Linux, its RSS
// and open descriptor count (nil elsewhere).
func readSoak(t *testing.T, cl *cluster.ProcCluster) soakSamples {
	t.Helper()
	var s soakSamples
	for _, u := range cl.URLs {
		s.sessions = append(s.sessions, metricValue(t, u, "spatialserve_ingest_sessions"))
	}
	if runtime.GOOS != "linux" {
		return s
	}
	for _, p := range cl.Procs {
		pid := p.Cmd.Process.Pid
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			t.Fatal(err)
		}
		rss := -1.0
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
				rss, _ = strconv.ParseFloat(f[1], 64)
			}
		}
		fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
		if err != nil {
			t.Fatal(err)
		}
		s.rssKB = append(s.rssKB, rss)
		s.fds = append(s.fds, float64(len(fds)))
	}
	return s
}
