package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	spatial "repro"
	"repro/geo"
	"repro/internal/cluster"
	"repro/internal/dyadic"
	"repro/internal/ingest"
	"repro/internal/wal"
	"repro/internal/xi"
)

// The in-process rungs of the per-layer ladder. Each times calls into
// one layer's public API on the workload's own inputs: the records its
// writers send (the preload on read_hot, which writes nothing) and the
// estimates its readers ask (the join targets on ingest, which reads
// nothing).

// layerInputs are one workload's replayable inputs.
type layerInputs struct {
	records []ackedOp // in send order
	reads   []readOp  // in the order they are sent
	queries []geo.HyperRect
}

// ladderRecords bounds the records replayed through the write rungs.
const ladderRecords = 2048

// ladderReads bounds the estimates replayed through the read rungs.
const ladderReads = 256

// workloadInputs regenerates the inputs the workload's clients draw, from
// the same seeded streams the cluster run uses.
func workloadInputs(wl workload, seed int64) layerInputs {
	targets := allTargets()
	in := layerInputs{queries: queries(seed)}
	switch {
	case wl.updateClients > 0:
		g := newWriteGen(seed, 0)
		for len(in.records) < ladderRecords {
			in.records = append(in.records, g.next())
		}
	case wl.ingestClients > 0:
		gens := make([]*recordGen, wl.ingestClients)
		for i := range gens {
			gens[i] = newRecordGen(seed, streamIngest+int64(i))
		}
		for len(in.records) < ladderRecords {
			for i, g := range gens {
				ti := ingestTarget(i)
				for k := 0; k < batchSize; k++ {
					in.records = append(in.records, ackedOp{target: ti, rec: g.next(ti, "join")})
				}
			}
		}
	default:
		for ti, tg := range targets {
			g := newRecordGen(seed, streamPreload+int64(ti))
			for k := 0; k < preloadPerTarget+preloadJSON; k++ {
				in.records = append(in.records, ackedOp{target: ti, rec: g.next(ti, tg.kind)})
			}
		}
	}
	if wl.estimateClients > 0 {
		g := newReadGen(seed, 0)
		for len(in.reads) < ladderReads {
			in.reads = append(in.reads, g.next())
		}
	} else {
		for len(in.reads) < ladderReads {
			in.reads = append(in.reads, readOp{target: ingestTarget(len(in.reads))})
		}
	}
	return in
}

// ladder holds the in-process rung measurements.
type ladder struct {
	xiNsPerID, coverNsPerRec, kernelUsPerRec      float64
	applyUs                                       float64
	warmUs, coldUs, gatherUs, marshalUs, snapKB   float64
	walAppendUs, walRecsPerCommit, walBytesPerRec float64
	frameUsPerBatch                               float64
}

// timeLoop runs fn repeatedly until it has run at least minDur in total
// and returns the mean duration of one call.
func timeLoop(minDur time.Duration, fn func()) time.Duration {
	var n int
	start := time.Now()
	for time.Since(start) < minDur || n == 0 {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// runLadder measures every in-process rung on the inputs. dir is a
// scratch directory for the WAL rung.
func runLadder(in layerInputs, dir string) (*ladder, error) {
	var l ladder
	targets := allTargets()

	// dyadic + xi: per record, per dimension, the interval cover and the
	// two endpoint covers (a point has one), then the signs of every id
	// summed over all families - the kernel work of one sketch update.
	dom, err := dyadic.ForSize(domain)
	if err != nil {
		return nil, err
	}
	bank := xi.NewBank(instances)
	for j := 0; j < instances; j++ {
		bank.SetSeed(j, uint64(j)*0x9e3779b97f4a7c15+1)
	}
	covers := func(rec spatial.UpdateRecord, out [][]uint64) [][]uint64 {
		out = out[:0]
		for _, p := range rec.Point {
			out = append(out, dom.PointCover(p, nil))
		}
		for _, iv := range rec.Rect {
			out = append(out, dom.Cover(iv.Lo, iv.Hi, nil), dom.PointCover(iv.Lo, nil), dom.PointCover(iv.Hi, nil))
		}
		return out
	}
	var buf [][]uint64
	coverTime := timeLoop(50*time.Millisecond, func() {
		for _, op := range in.records {
			buf = covers(op.rec, buf)
		}
	})
	var idLists [][]uint64
	ids := 0
	for _, op := range in.records {
		for _, c := range covers(op.rec, nil) {
			idLists = append(idLists, c)
			ids += len(c)
		}
	}
	acc := make([]int64, instances)
	signTime := timeLoop(100*time.Millisecond, func() {
		for _, c := range idLists {
			bank.SumSignsMany(c, 0, instances, acc)
		}
	})
	nrec := float64(len(in.records))
	l.coverNsPerRec = float64(coverTime) / nrec
	l.xiNsPerID = float64(signTime) / float64(ids)
	l.kernelUsPerRec = float64(coverTime+signTime) / nrec / 1e3

	// estimator: apply every record into the eight targets' estimators.
	ests := make([]refEstimator, len(targets))
	parts := make([][]refEstimator, len(targets))
	for ti, tg := range targets {
		if ests[ti], err = newRef(tg.kind); err != nil {
			return nil, err
		}
		parts[ti] = make([]refEstimator, partitions)
		for p := range parts[ti] {
			if parts[ti][p], err = newRef(tg.kind); err != nil {
				return nil, err
			}
		}
	}
	t0 := time.Now()
	for _, op := range in.records {
		if err := ests[op.target].Apply(op.rec); err != nil {
			return nil, fmt.Errorf("apply: %w", err)
		}
	}
	l.applyUs = float64(time.Since(t0)) / nrec / 1e3
	for _, op := range in.records {
		p := cluster.PartitionOf(op.rec.RoutingHash(), partitions)
		if err := parts[op.target][p].Apply(op.rec); err != nil {
			return nil, err
		}
	}

	query := func(op readOp) geo.HyperRect {
		if targets[op.target].kind == "range" {
			return in.queries[op.query]
		}
		return nil
	}
	// Warm: the estimator's view memo already holds the answer.
	for _, op := range in.reads {
		if _, err := estimateValue(ests[op.target], query(op)); err != nil {
			return nil, err
		}
	}
	warm := timeLoop(50*time.Millisecond, func() {
		for _, op := range in.reads {
			estimateValue(ests[op.target], query(op))
		}
	})
	l.warmUs = float64(warm) / float64(len(in.reads)) / 1e3

	// Partition snapshots: what an owner marshals per revalidation, for
	// the targets the workload reads, as often as it reads them.
	snaps := make([][][]byte, len(targets))
	for ti := range targets {
		for _, pe := range parts[ti] {
			data, err := pe.Marshal()
			if err != nil {
				return nil, err
			}
			snaps[ti] = append(snaps[ti], data)
		}
	}
	var marshal time.Duration
	var nsnap, bytesTotal int
	for _, op := range in.reads {
		for p, pe := range parts[op.target] {
			t0 := time.Now()
			if _, err := pe.Marshal(); err != nil {
				return nil, err
			}
			marshal += time.Since(t0)
			nsnap++
			bytesTotal += len(snaps[op.target][p])
		}
	}
	l.marshalUs = float64(marshal) / float64(nsnap) / 1e3
	l.snapKB = float64(bytesTotal) / float64(nsnap) / 1024

	// Cold: a freshly restored merged estimator's first estimate. Gather:
	// restore partition 0, merge the other partitions, estimate - the
	// router's read-cache miss path.
	var cold, gather time.Duration
	for _, op := range in.reads {
		tg := targets[op.target]
		whole, err := ests[op.target].Marshal()
		if err != nil {
			return nil, err
		}
		fresh, err := unmarshalRef(tg.kind, whole)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := estimateValue(fresh, query(op)); err != nil {
			return nil, err
		}
		cold += time.Since(t0)

		t0 = time.Now()
		merged, err := unmarshalRef(tg.kind, snaps[op.target][0])
		if err != nil {
			return nil, err
		}
		for _, s := range snaps[op.target][1:] {
			if err := merged.MergeSnapshot(s); err != nil {
				return nil, err
			}
		}
		if _, err := estimateValue(merged, query(op)); err != nil {
			return nil, err
		}
		gather += time.Since(t0)
	}
	l.coldUs = float64(cold) / float64(len(in.reads)) / 1e3
	l.gatherUs = float64(gather) / float64(len(in.reads)) / 1e3

	if err := l.walRung(in, dir); err != nil {
		return nil, err
	}
	return &l, l.frameRung(in)
}

// walRung appends every record's encoding from two goroutines, as the
// server's concurrent writers do, and reads the group commits back from
// OnCommit.
func (l *ladder) walRung(in layerInputs, dir string) error {
	var mu sync.Mutex
	var commits, bytesTotal int
	w, err := wal.Open(wal.Options{Dir: dir, OnCommit: func(st wal.CommitStats) {
		mu.Lock()
		commits++
		bytesTotal += st.Bytes
		mu.Unlock()
	}})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var wg sync.WaitGroup
	var total time.Duration
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine time.Duration
			for i := g; i < len(in.records); i += 2 {
				payload := in.records[i].rec.AppendBinary(nil)
				t0 := time.Now()
				if _, err := w.Append(payload); err != nil {
					errs[g] = err
					return
				}
				mine += time.Since(t0)
			}
			mu.Lock()
			total += mine
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
	}
	n := float64(len(in.records))
	l.walAppendUs = float64(total) / n / 1e3
	l.walRecsPerCommit = n / float64(commits)
	l.walBytesPerRec = float64(bytesTotal) / n
	return nil
}

// frameRung encodes each 32-record batch as the client does and decodes
// it as the server does.
func (l *ladder) frameRung(in layerInputs) error {
	nb := len(in.records) / batchSize
	var decodeErr error
	per := timeLoop(50*time.Millisecond, func() {
		for b := 0; b < nb; b++ {
			var enc []byte
			for _, op := range in.records[b*batchSize : (b+1)*batchSize] {
				enc = op.rec.AppendBinary(enc)
			}
			frame := ingest.AppendBatch(nil, uint64(b+1), batchSize, enc)
			_, body, err := ingest.ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
			if err == nil {
				var batch ingest.Batch
				if batch, err = ingest.DecodeBatch(body); err == nil {
					_, err = batch.DecodeRecords()
				}
			}
			if err != nil && decodeErr == nil {
				decodeErr = err
			}
		}
	})
	l.frameUsPerBatch = float64(per) / float64(nb) / 1e3
	return decodeErr
}
