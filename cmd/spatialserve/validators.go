package main

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cluster"
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
// A cluster router reads the partitions of one estimator with one
// internal request per owner node:
//
//	GET /v1/estimators/{base}/snapshot?parts=0,3,5
//	X-Spatial-Validators: "tag0",,"tag5"
//
// The header lists the router's cached validator of each listed
// partition, comma-separated in ?parts= order, empty where it holds none.
// The owner answers 304 with no body when every listed partition still
// carries its validator. Otherwise it answers 200 with a uvarint record
// count followed by one record per listed partition, in request order:
// a state byte, and for partSnapshot a uvarint-length-prefixed tag (empty
// when a write raced the marshal) and a uvarint-length-prefixed SPE1
// snapshot.

// headerValidators carries a grouped read's cached validators.
const headerValidators = "X-Spatial-Validators"

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
	// maxTagLen caps one validator; ours are under 50 bytes.
	maxTagLen = 128
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
// the owner side of a grouped read, and a router's own partitions.
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

// serveParts answers a grouped partition read of base (internal only).
func (s *Server) serveParts(w http.ResponseWriter, r *http.Request, base string) {
	parts, inms, err := parsePartsRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	recs := make([]partRecord, len(parts))
	changed := false
	for i, p := range parts {
		if recs[i], err = s.readPart(cluster.ShardName(base, p), inms[i]); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		changed = changed || recs[i].state != partUnchanged
	}
	if !changed {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(appendParts(nil, recs))
}

// parsePartsRequest reads a grouped read's partition list and validators.
func parsePartsRequest(r *http.Request) (parts []int, inms []string, err error) {
	list := strings.Split(r.URL.Query().Get("parts"), ",")
	if len(list) > maxGroupParts {
		return nil, nil, fmt.Errorf("%d partitions in one read, at most %d", len(list), maxGroupParts)
	}
	parts = make([]int, len(list))
	for i, f := range list {
		if parts[i], err = strconv.Atoi(f); err != nil || parts[i] < 0 {
			return nil, nil, fmt.Errorf("bad partition %q in ?parts=", f)
		}
	}
	inms = make([]string, len(parts))
	if h := r.Header.Get(headerValidators); h != "" {
		vals := strings.Split(h, ",")
		if len(vals) != len(parts) {
			return nil, nil, fmt.Errorf("%d validators for %d partitions", len(vals), len(parts))
		}
		for i, v := range vals {
			inms[i] = strings.TrimSpace(v)
		}
	}
	return parts, inms, nil
}

// appendParts appends the 200 body of a grouped read to dst.
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

// decodeParts parses the 200 body of a grouped read that listed n
// partitions. Every length is checked against the bytes left before
// anything is sliced or allocated, and each snapshot is copied out of
// body, so a cached partition never pins a whole multi-partition
// response.
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
		data, r, err := uvarintBytes(r, len(r))
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
	if k <= 0 || n > uint64(limit) || n > uint64(len(b)-k) {
		return nil, nil, errBadParts
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// validTag reports whether a received validator can ride back in the
// comma-separated validator header: printable ASCII, no comma.
func validTag(tag []byte) bool {
	for _, c := range tag {
		if c <= ' ' || c > '~' || c == ',' {
			return false
		}
	}
	return true
}
