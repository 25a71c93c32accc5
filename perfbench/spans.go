package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The traced run's span folding. The nodes run with -trace-sample=1, so
// every completed trace enters each node's bounded /admin/trace ring; a
// collector polls the rings and keeps a sample before it is evicted:
//
//   - single-span traces (wal.commit, view.rebuild, recorded with no
//     request context) are read straight from the listing;
//   - multi-span traces are sampled a few per root name per poll and
//     fetched from every node (?local=1), so a fan-out span on the router
//     and its child request span on the owner meet in one span set.
//
// A span's self time is its duration minus the part of it its retained
// children cover. A child whose segment was evicted before it was
// fetched is missing, and its time counts as the parent's own.

// pollEvery is the ring polling period. A node's 256-trace ring turns
// over in a few hundred milliseconds under read_hot, so the collector
// polls well inside that.
const pollEvery = 100 * time.Millisecond

// perRootPerPoll bounds the multi-span traces fetched per root name per
// poll.
const perRootPerPoll = 6

// spanData is the subset of the server's span record the fold needs.
type spanData struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// traceSummary is one entry of GET /admin/trace.
type traceSummary struct {
	TraceID  string        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
}

// spanCollector polls the cluster's trace rings until stopped.
type spanCollector struct {
	hc   *http.Client
	urls []string
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	seen   map[string]bool            // node|trace|start of listed segments
	spans  map[string]spanData        // multi-span traces' spans, by span ID
	single map[string][]time.Duration // single-span traces' durations, by name
	errs   int
}

// startCollector begins polling the nodes' trace rings.
func startCollector(hc *http.Client, urls []string) *spanCollector {
	c := &spanCollector{
		hc: hc, urls: urls,
		stop: make(chan struct{}), done: make(chan struct{}),
		seen: map[string]bool{}, spans: map[string]spanData{}, single: map[string][]time.Duration{},
	}
	go c.loop()
	return c
}

// finish stops polling after one last poll and waits for the loop.
func (c *spanCollector) finish() {
	close(c.stop)
	<-c.done
}

func (c *spanCollector) loop() {
	defer close(c.done)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			c.poll()
			return
		case <-t.C:
			c.poll()
		}
	}
}

// getJSON decodes one GET response.
func (c *spanCollector) getJSON(u string, out any) error {
	resp, err := c.hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// poll lists every node's ring, folds new single-span traces and fetches
// a bounded sample of new multi-span traces from every node.
func (c *spanCollector) poll() {
	want := map[string]bool{}
	for _, n := range spanNames {
		want[n] = true
	}
	perRoot := map[string]int{}
	fetch := map[string]bool{}
	for _, u := range c.urls {
		var list struct {
			Traces []traceSummary `json:"traces"`
		}
		if err := c.getJSON(u+"/admin/trace?limit=256", &list); err != nil {
			c.mu.Lock()
			c.errs++
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		for _, s := range list.Traces {
			key := u + "|" + s.TraceID + "|" + s.Start.String()
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
			if s.Spans == 1 {
				if want[s.Root] {
					c.single[s.Root] = append(c.single[s.Root], s.Duration)
				}
				continue
			}
			if perRoot[s.Root] < perRootPerPoll && !fetch[s.TraceID] {
				perRoot[s.Root]++
				fetch[s.TraceID] = true
			}
		}
		c.mu.Unlock()
	}
	for id := range fetch {
		for _, u := range c.urls {
			var tr struct {
				Segments []struct {
					Spans []spanData `json:"spans"`
				} `json:"segments"`
			}
			if err := c.getJSON(u+"/admin/trace/"+id+"?local=1", &tr); err != nil {
				continue // 404: this node holds no segment of the trace
			}
			c.mu.Lock()
			for _, seg := range tr.Segments {
				for _, sp := range seg.Spans {
					c.spans[sp.SpanID] = sp
				}
			}
			c.mu.Unlock()
		}
	}
}

// selfTimes returns every sampled span's self time, by span name, for
// the names in spanNames.
func (c *spanCollector) selfTimes() map[string][]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errs > 0 {
		logf("trace collector: %d ring listings failed", c.errs)
	}
	out := map[string][]time.Duration{}
	for name, ds := range c.single {
		out[name] = append(out[name], ds...)
	}
	all := make([]spanData, 0, len(c.spans))
	for _, sp := range c.spans {
		all = append(all, sp)
	}
	for name, ds := range foldSelfTimes(all, spanNames) {
		out[name] = append(out[name], ds...)
	}
	return out
}

// foldSelfTimes computes the self time of every span named in names:
// its duration minus the union of its children's intervals clipped to
// it.
func foldSelfTimes(spans []spanData, names []string) map[string][]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	children := map[string][]spanData{}
	for _, sp := range spans {
		if sp.ParentID != "" {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	out := map[string][]time.Duration{}
	for _, sp := range spans {
		if !want[sp.Name] {
			continue
		}
		out[sp.Name] = append(out[sp.Name], sp.Duration-covered(sp, children[sp.SpanID]))
	}
	return out
}

// covered returns how much of parent's interval the children's
// intervals cover, counting overlapping children once.
func covered(parent spanData, kids []spanData) time.Duration {
	lo, hi := parent.Start, parent.Start.Add(parent.Duration)
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Duration)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
