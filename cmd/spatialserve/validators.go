package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Snapshot validators and grouped partition reads.
//
// A snapshot's ETag is an opaque strong tag built from two parts: the
// estimator object's incarnation (a per-process random nonce plus a
// counter, drawn wherever a servable is constructed) and its write
// version (spatial.JoinEstimator.Version and its three siblings). A
// write bumps the version, and replacing, restoring or re-creating an
// estimator makes a new object with a new incarnation, so a tag is never
// reused for different bytes - not across writes, objects or restarts.
// Checking a conditional GET therefore costs two counter reads: a match
// answers 304 without marshaling, and a 200 sends its tag only when the
// version read before and after the marshal agree. A cluster-wide
// snapshot is tagged with a hash of its partitions' validators instead
// (mergedServable), the same on every router.
//
// A cluster router reads the partitions of one estimator with one call
// per owner node, on a pooled peer connection (cluster.Client.Send; the
// owner answers in answerPeer). The request is a frameRead frame on
// internal/ingest's frame layer:
//
//	uvarint len | base name
//	uvarint n   | n x (uvarint partition | uvarint len | validator)
//	uvarint len | traceparent
//	uvarint len | request ID
//
// listing the router's cached validator of each partition, empty where
// it holds none, and the trace identity of the hop. The owner answers
// with a frameParts frame: a uvarint record count followed by one record
// per listed partition, in request order: a state byte, and for
// partSnapshot a uvarint-length-prefixed tag (empty when a write raced
// the marshal) and a uvarint-length-prefixed SPE1 snapshot. A request it
// cannot serve gets an ingest.FrameError frame.

// The frame types of a grouped read on a peer connection.
const (
	// frameRead is a router's grouped read request.
	frameRead ingest.FrameType = 16
	// frameParts is an owner's answer to a frameRead.
	frameParts ingest.FrameType = 17
)

// The states of a grouped read's response records.
const (
	// partUnchanged: the partition still carries the caller's validator.
	partUnchanged byte = iota
	// partSnapshot: a tag and the partition's snapshot bytes follow.
	partSnapshot
	// partNotHere: this node holds no copy of the partition it may serve
	// (never created, deleted, or moved away by a rebalance).
	partNotHere
)

// Bounds of the grouped read protocol, checked before anything is sized
// from a request or response.
const (
	// maxGroupParts caps the partitions one grouped read may list.
	maxGroupParts = 1 << 12
	// maxTagLen caps one validator (ours are under 50 bytes) and each of
	// a request's traceparent (55) and request ID (at most 64).
	maxTagLen = 128
	// maxPartRecord caps one partition's answer record: its state byte,
	// tag and snapshot, the snapshot bounded like a snapshot PUT.
	maxPartRecord = 1 + 2*binary.MaxVarintLen64 + maxTagLen + maxBodyBytes
)

// processNonce makes validators unique across restarts: incarnation
// counters start again at one in every process.
var processNonce = func() string {
	var b [8]byte
	rand.Read(b[:]) // never fails (crypto/rand, Go 1.24)
	return hex.EncodeToString(b[:])
}()

// incarnations numbers the estimator objects of this process.
var incarnations atomic.Uint64

// incarnation identifies one constructed estimator object; servables
// embed it (see buildServable).
type incarnation uint64

// nextIncarnation draws a fresh incarnation.
func nextIncarnation() incarnation { return incarnation(incarnations.Add(1)) }

// snapshotTag returns the strong validator of this object's snapshot at
// write version v: quoted, opaque, printable and free of commas.
func (i incarnation) snapshotTag(v uint64) string {
	b := make([]byte, 0, 64)
	b = append(b, '"')
	b = append(b, processNonce...)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(i), 36)
	b = append(b, '.')
	b = strconv.AppendUint(b, v, 36)
	b = append(b, '"')
	return string(b)
}

// readValidated reads est's snapshot unless its current validator
// satisfies unchanged, in which case no marshal runs and data is nil. The
// returned tag is "" when est has no validator (see mergedServable) or a
// write raced the marshal: the bytes are then real but lie between two
// versions, so nothing may validate them.
func readValidated(est servable, unchanged func(tag string) bool) (tag string, data []byte, err error) {
	v := est.version()
	tag = est.snapshotTag(v)
	if tag != "" && unchanged(tag) {
		return tag, nil, nil
	}
	if data, err = est.snapshot(); err != nil {
		return "", nil, err
	}
	if est.version() != v {
		tag = ""
	}
	return tag, data, nil
}

// partRecord is one partition's answer in a grouped read.
type partRecord struct {
	state byte
	tag   string
	data  []byte
}

// readPart answers one partition of a gather from the local registry -
// the owner side of a grouped read (answerPeer), and a router's own
// partitions.
func (s *Server) readPart(shard, inm string) (partRecord, error) {
	est, ok := s.lookup(shard)
	if !ok || (s.cluster != nil && !s.cluster.owns(shard)) {
		return partRecord{state: partNotHere}, nil
	}
	tag, data, err := readValidated(est, func(tag string) bool { return tag == inm })
	switch {
	case err != nil:
		return partRecord{}, err
	case data == nil:
		return partRecord{state: partUnchanged, tag: tag}, nil
	}
	return partRecord{state: partSnapshot, tag: tag, data: data}, nil
}

// answerPeer answers one frame of a peer connection: a grouped read of
// the partitions it lists. The read is counted and timed like the HTTP
// request it replaced (endpoint "snapshot_get": 304 when every listed
// partition is unchanged, 200 otherwise) and traced as one span, "peer
// snapshot_get", under the caller's span.
func (s *Server) answerPeer(ft ingest.FrameType, body []byte) []byte {
	start := time.Now()
	q, err := decodeReadRequest(body)
	if err == nil && ft != frameRead {
		err = fmt.Errorf("unexpected frame type %d on a peer connection", ft)
	}
	ctx := context.Background()
	if id, parent, ok := trace.ParseTraceparent(q.traceparent); ok {
		ctx = trace.ContextWithRemote(ctx, id, parent)
	}
	const op = "peer snapshot_get"
	_, sp := s.tracer.Start(ctx, op)
	sp.SetAttr("endpoint", "snapshot_get")
	rid := ""
	if validRequestID(q.requestID) {
		rid = q.requestID
		sp.SetAttr("request_id", rid)
	}
	var answer []byte
	code := http.StatusBadRequest
	if err == nil {
		recs := make([]partRecord, len(q.parts))
		code = http.StatusNotModified
		for i, p := range q.parts {
			if recs[i], err = s.readPart(cluster.ShardName(q.base, p), q.inms[i]); err != nil {
				code = http.StatusInternalServerError
				break
			}
			if recs[i].state != partUnchanged {
				code = http.StatusOK
			}
		}
		if err == nil {
			answer = ingest.AppendFrame(nil, frameParts, appendParts(nil, recs))
		}
	}
	if err != nil {
		errCode := ingest.CodeBadRequest
		if code == http.StatusInternalServerError {
			errCode = ingest.CodeInternal
		}
		answer = ingest.AppendError(nil, errCode, err.Error())
	}
	tenant, _ := splitTenant(q.base)
	s.finishRequest(sp, op, "snapshot_get", s.tenantLabel(tenant), code, time.Since(start), rid)
	return answer
}

// readRequest is one grouped read: the partitions of base to read, the
// router's cached validator of each ("" for none), and the hop's trace
// identity.
type readRequest struct {
	base        string
	parts       []int
	inms        []string
	traceparent string
	requestID   string
}

// appendReadRequest appends the body of q's frameRead frame to dst.
func appendReadRequest(dst []byte, q *readRequest) []byte {
	dst = appendField(dst, q.base)
	dst = binary.AppendUvarint(dst, uint64(len(q.parts)))
	for i, p := range q.parts {
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = appendField(dst, q.inms[i])
	}
	dst = appendField(dst, q.traceparent)
	return appendField(dst, q.requestID)
}

// appendField appends a uvarint-length-prefixed string.
func appendField(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// errBadRead reports a malformed grouped read request.
var errBadRead = errors.New("malformed grouped read request")

// decodeReadRequest parses a frameRead body. The partition count is
// bounded by maxGroupParts and by what the body can hold before the
// lists are allocated, every string by its own bound, and every uvarint
// must be minimally encoded, so an accepted request re-encodes to its
// own bytes.
func decodeReadRequest(body []byte) (q readRequest, err error) {
	base, rest, err := uvarintBytes(body, len(body))
	if err != nil || len(base) == 0 {
		return q, fmt.Errorf("%w: base name", errBadRead)
	}
	n, k := binary.Uvarint(rest)
	// Every partition takes at least two bytes: its index and the length
	// of its validator.
	if !minimalUvarint(rest, k) || n == 0 || n > maxGroupParts || n > uint64(len(rest)-k)/2 {
		return q, fmt.Errorf("%w: partition count", errBadRead)
	}
	rest = rest[k:]
	q.parts, q.inms = make([]int, n), make([]string, n)
	for i := range q.parts {
		p, k := binary.Uvarint(rest)
		if !minimalUvarint(rest, k) || p > math.MaxInt32 {
			return q, fmt.Errorf("%w: partition %d", errBadRead, i)
		}
		inm, r, err := uvarintBytes(rest[k:], maxTagLen)
		if err != nil || !validTag(inm) {
			return q, fmt.Errorf("%w: validator %d", errBadRead, i)
		}
		q.parts[i], q.inms[i], rest = int(p), string(inm), r
	}
	tp, rest, err := uvarintBytes(rest, maxTagLen)
	if err != nil {
		return q, fmt.Errorf("%w: traceparent", errBadRead)
	}
	rid, rest, err := uvarintBytes(rest, maxTagLen)
	if err != nil || len(rest) != 0 {
		return q, fmt.Errorf("%w: request ID", errBadRead)
	}
	q.base, q.traceparent, q.requestID = string(base), string(tp), string(rid)
	return q, nil
}

// appendParts appends the records of a grouped read's answer to dst.
func appendParts(dst []byte, recs []partRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, rec := range recs {
		dst = append(dst, rec.state)
		if rec.state == partSnapshot {
			dst = binary.AppendUvarint(dst, uint64(len(rec.tag)))
			dst = append(dst, rec.tag...)
			dst = binary.AppendUvarint(dst, uint64(len(rec.data)))
			dst = append(dst, rec.data...)
		}
	}
	return dst
}

// errBadParts reports a malformed grouped read response.
var errBadParts = errors.New("malformed grouped snapshot response")

// decodeParts parses the frameParts body answering a grouped read that
// listed n partitions. Every length is checked against the bytes left
// (and a snapshot against maxBodyBytes) before anything is sliced or
// allocated, and each snapshot is copied out of body, so a cached
// partition never pins a whole multi-partition answer.
func decodeParts(body []byte, n int) ([]partRecord, error) {
	count, k := binary.Uvarint(body)
	// Every record takes at least its state byte, so a count the body
	// cannot hold is refused before the records are allocated.
	if k <= 0 || count != uint64(n) || n > maxGroupParts || count > uint64(len(body)-k) {
		return nil, fmt.Errorf("%w: record count", errBadParts)
	}
	rest := body[k:]
	recs := make([]partRecord, n)
	for i := range recs {
		if len(rest) == 0 {
			return nil, fmt.Errorf("%w: record %d truncated", errBadParts, i)
		}
		recs[i].state, rest = rest[0], rest[1:]
		switch recs[i].state {
		case partUnchanged, partNotHere:
			continue
		case partSnapshot:
		default:
			return nil, fmt.Errorf("%w: record %d state %d", errBadParts, i, recs[i].state)
		}
		tag, r, err := uvarintBytes(rest, maxTagLen)
		if err != nil || !validTag(tag) {
			return nil, fmt.Errorf("%w: record %d tag", errBadParts, i)
		}
		data, r, err := uvarintBytes(r, maxBodyBytes)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d snapshot", errBadParts, i)
		}
		recs[i].tag, recs[i].data, rest = string(tag), append([]byte(nil), data...), r
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadParts, len(rest))
	}
	return recs, nil
}

// uvarintBytes splits a uvarint-length-prefixed field of at most limit
// bytes off the front of b.
func uvarintBytes(b []byte, limit int) (field, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if !minimalUvarint(b, k) || n > uint64(limit) || n > uint64(len(b)-k) {
		return nil, nil, errBadParts
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// minimalUvarint reports whether binary.Uvarint read k > 0 bytes of b as
// the shortest encoding of its value (no trailing zero group).
func minimalUvarint(b []byte, k int) bool {
	return k == 1 || k > 1 && b[k-1] != 0
}

// validTag reports whether a received validator is printable ASCII with
// no comma, as mergedTag's comma-joined hash of partition validators
// needs.
func validTag(tag []byte) bool {
	for _, c := range tag {
		if c <= ' ' || c > '~' || c == ',' {
			return false
		}
	}
	return true
}
