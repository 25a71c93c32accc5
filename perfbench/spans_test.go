package main

import (
	"strings"
	"testing"
	"time"
)

func TestFoldSelfTimes(t *testing.T) {
	t0 := time.Unix(5000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []spanData{
		{SpanID: "root", Name: "http estimate", Start: at(0), Duration: d(20)},
		// A fan-out span with two overlapping remote children and one that
		// sticks out past its end: covered is [2,7] + [9,10] = 6ms.
		{SpanID: "f", ParentID: "root", Name: "fanout.snapshot", Start: at(1), Duration: d(9)},
		{SpanID: "c1", ParentID: "f", Name: "http snapshot_get", Start: at(2), Duration: d(4)},
		{SpanID: "c2", ParentID: "f", Name: "http snapshot_get", Start: at(3), Duration: d(4)},
		{SpanID: "c3", ParentID: "f", Name: "http snapshot_get", Start: at(9), Duration: d(5)},
		// A leaf span: all of it is self time.
		{SpanID: "w", Name: "wal.commit", Start: at(30), Duration: d(2)},
	}
	got := foldSelfTimes(spans, spanNames)
	if s := got["fanout.snapshot"]; len(s) != 1 || s[0] != d(3) {
		t.Errorf("fanout.snapshot self %v, want [3ms]", s)
	}
	if s := got["wal.commit"]; len(s) != 1 || s[0] != d(2) {
		t.Errorf("wal.commit self %v, want [2ms]", s)
	}
	if _, ok := got["http estimate"]; ok {
		t.Error("folded a span not in the name list")
	}
}

func TestParseProm(t *testing.T) {
	text := strings.Join([]string{
		"# HELP spatialserve_requests_total Requests.",
		`spatialserve_requests_total{endpoint="snapshot_get",tenant="default",code="304"} 12`,
		`spatialserve_requests_total{endpoint="snapshot_get",tenant="default",code="200"} 3`,
		`spatialserve_requests_total{endpoint="estimate",tenant="default",code="200"} 5`,
		`spatialserve_cluster_readcache_events_total{outcome="hit"} 4`,
		`spatialserve_cluster_readcache_events_total{outcome="miss"} 1`,
		"spatialserve_viewcache_hits_total 7",
		"garbage line",
	}, "\n")
	var c counters
	c.add(parseProm(strings.NewReader(text)))
	if c.snapshotGets != 15 || c.snapshot304 != 12 || c.estimates != 5 ||
		c.readcacheHit != 4 || c.readcacheMiss != 1 || c.viewcacheHit != 7 {
		t.Errorf("counters %+v", c)
	}
}
