package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the sample lines of a text exposition, skipping
// comments and anything malformed.
func parseProm(r io.Reader) []promSample {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 && strings.HasSuffix(s.name, "}") {
			for _, kv := range strings.Split(s.name[i+1:len(s.name)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// counters is a summed scrape of the cluster's counters of interest.
type counters struct {
	readcacheHit, readcacheMiss    float64
	viewcacheHit, viewcacheMiss    float64
	snapshotGets, snapshot304      float64
	estimates                      float64
	admissionRejected, breakerMove float64
}

// sub returns c - o, counter by counter.
func (c counters) sub(o counters) counters {
	return counters{
		readcacheHit:      c.readcacheHit - o.readcacheHit,
		readcacheMiss:     c.readcacheMiss - o.readcacheMiss,
		viewcacheHit:      c.viewcacheHit - o.viewcacheHit,
		viewcacheMiss:     c.viewcacheMiss - o.viewcacheMiss,
		snapshotGets:      c.snapshotGets - o.snapshotGets,
		snapshot304:       c.snapshot304 - o.snapshot304,
		estimates:         c.estimates - o.estimates,
		admissionRejected: c.admissionRejected - o.admissionRejected,
		breakerMove:       c.breakerMove - o.breakerMove,
	}
}

// add folds one node's samples into c.
func (c *counters) add(samples []promSample) {
	for _, s := range samples {
		switch s.name {
		case "spatialserve_cluster_readcache_events_total":
			if s.labels["outcome"] == "hit" {
				c.readcacheHit += s.value
			} else {
				c.readcacheMiss += s.value
			}
		case "spatialserve_viewcache_hits_total":
			c.viewcacheHit += s.value
		case "spatialserve_viewcache_misses_total":
			c.viewcacheMiss += s.value
		case "spatialserve_requests_total":
			switch s.labels["endpoint"] {
			case "snapshot_get":
				c.snapshotGets += s.value
				if s.labels["code"] == "304" {
					c.snapshot304 += s.value
				}
			case "estimate":
				c.estimates += s.value
			}
		case "spatialserve_admission_rejected_total":
			c.admissionRejected += s.value
		case "spatialserve_breaker_transitions_total":
			c.breakerMove += s.value
		}
	}
}

// scrapeCounters sums the counters over every node's /metrics.
func scrapeCounters(hc *http.Client, urls []string) (counters, error) {
	var c counters
	for _, u := range urls {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return c, fmt.Errorf("scraping %s: %w", u, err)
		}
		samples := parseProm(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return c, fmt.Errorf("scraping %s: status %d", u, resp.StatusCode)
		}
		c.add(samples)
	}
	return c, nil
}

// ratio returns a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
