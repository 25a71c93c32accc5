package spatial

import (
	"encoding/binary"
	"fmt"

	"repro/geo"
	"repro/internal/core"
)

// Versioned full-estimator snapshot envelope ("SPE1").
//
// The core package serializes bare sketches ("SPK1"): counters plus the
// internal plan geometry. That is enough to merge into a pre-agreed
// estimator but not to *serve*: a receiver cannot reconstruct the
// estimator, and public configuration the plan does not capture -
// DomainSize (1000 and 1024 share a plan), Mode, Eps - is silently lost.
//
// The envelope wraps the core blobs with the full public configuration:
//
//	magic "SPE1" | version | kind | side
//	dims | domainSize | mode | maxLevel (resolved cap; 0 = uncapped)
//	eps | seed | instances | groups
//	nblobs | (len | SPK1 bytes)*
//
// Every estimator type gains Marshal (emit a snapshot of the whole
// estimator), Unmarshal<Kind>Estimator (reconstruct a working estimator
// from one), and MergeSnapshot (fold a snapshot into an existing
// estimator, rejecting ANY public-config mismatch at decode time rather
// than by silent counter corruption), all through the one lifecycle of
// estimator.go. All integers are little-endian.

// SnapshotVersion is the current snapshot envelope version. Decoders
// reject snapshots from a different version.
const SnapshotVersion = 1

const envelopeMagic = 0x53504531 // "SPE1"

// Kind identifies the estimator type a snapshot was taken from.
type Kind uint32

const (
	// KindJoin is a JoinEstimator snapshot (either mode).
	KindJoin Kind = 1
	// KindRange is a RangeEstimator snapshot.
	KindRange Kind = 2
	// KindEpsJoin is an EpsJoinEstimator snapshot.
	KindEpsJoin Kind = 3
	// KindContainment is a ContainmentEstimator snapshot.
	KindContainment Kind = 4
)

// String returns the kind's wire name ("join", "range", "epsjoin",
// "containment"), the inverse of ParseKind.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindRange:
		return "range"
	case KindEpsJoin:
		return "epsjoin"
	case KindContainment:
		return "containment"
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// ParseKind is the inverse of Kind.String for the known kinds.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "join":
		return KindJoin, nil
	case "range":
		return KindRange, nil
	case "epsjoin":
		return KindEpsJoin, nil
	case "containment":
		return KindContainment, nil
	}
	return 0, fmt.Errorf("spatial: unknown estimator kind %q", s)
}

// snapSide distinguishes full-estimator snapshots from single-side ones
// (MarshalLeft/MarshalRight on a join estimator).
type snapSide uint32

const (
	sideBoth snapSide = iota
	sideLeft
	sideRight
)

// span returns the range [lo, hi) of shard sides a snapshot of this side
// carries, for an estimator of n sides.
func (s snapSide) span(n int) (lo, hi int) {
	if s == sideBoth {
		return 0, n
	}
	return int(s) - 1, int(s)
}

// String returns the side's name in error messages ("full", "left",
// "right").
func (s snapSide) String() string {
	switch s {
	case sideBoth:
		return "full"
	case sideLeft:
		return "left"
	case sideRight:
		return "right"
	}
	return fmt.Sprintf("side(%d)", uint32(s))
}

// snapHeader is the public configuration carried by every snapshot - the
// fields a receiver needs to reconstruct the estimator and the fields a
// merge must agree on exactly.
type snapHeader struct {
	kind       Kind
	side       snapSide
	dims       uint32 // public dims (containment: before the B.2 doubling)
	domainSize uint64
	mode       uint32 // join only; 0 otherwise
	maxLevel   int32  // resolved level cap; 0 = uncapped
	eps        uint64 // epsilon-join only; 0 otherwise
	seed       uint64
	instances  uint64 // resolved instance count
	groups     uint64 // resolved group count
}

// compatible reports, as an error, the first public-config field (or the
// side) on which an incoming snapshot header diverges from the receiver's.
func (h snapHeader) compatible(in snapHeader) error {
	switch {
	case in.kind != h.kind:
		return fmt.Errorf("spatial: snapshot of a %v estimator cannot merge into a %v estimator", in.kind, h.kind)
	case in.side != h.side:
		return fmt.Errorf("spatial: snapshot holds the %v side, want %v", in.side, h.side)
	case in.dims != h.dims:
		return fmt.Errorf("spatial: snapshot dims %d, estimator has %d", in.dims, h.dims)
	case in.domainSize != h.domainSize:
		return fmt.Errorf("spatial: snapshot domain size %d, estimator has %d", in.domainSize, h.domainSize)
	case in.mode != h.mode:
		return fmt.Errorf("spatial: snapshot mode %v, estimator uses %v", Mode(in.mode), Mode(h.mode))
	case in.maxLevel != h.maxLevel:
		return fmt.Errorf("spatial: snapshot level cap %d, estimator has %d", in.maxLevel, h.maxLevel)
	case in.eps != h.eps:
		return fmt.Errorf("spatial: snapshot eps %d, estimator has %d", in.eps, h.eps)
	case in.seed != h.seed:
		return fmt.Errorf("spatial: snapshot seed %d, estimator has %d (xi-families differ)", in.seed, h.seed)
	case in.instances != h.instances:
		return fmt.Errorf("spatial: snapshot has %d instances, estimator has %d", in.instances, h.instances)
	case in.groups != h.groups:
		return fmt.Errorf("spatial: snapshot has %d groups, estimator has %d", in.groups, h.groups)
	}
	return nil
}

// maxSnapshotBlobs bounds the per-snapshot sub-sketch count (no estimator
// carries more than two sketches).
const maxSnapshotBlobs = 2

// envelopeHeaderLen is the fixed-size envelope prefix: magic, version,
// kind, side, dims, domainSize, mode, maxLevel, eps, seed, instances,
// groups and nblobs.
const envelopeHeaderLen = 5*4 + 8 + 4 + 4 + 4*8 + 4

// marshalEnvelope encodes into one slice sized up front; the header is
// written in the field order of the layout above.
func marshalEnvelope(h snapHeader, blobs [][]byte) []byte {
	n := envelopeHeaderLen
	for _, b := range blobs {
		n += 8 + len(b)
	}
	le := binary.LittleEndian
	w := make([]byte, 0, n)
	for _, v := range [...]uint32{envelopeMagic, SnapshotVersion, uint32(h.kind), uint32(h.side), h.dims} {
		w = le.AppendUint32(w, v)
	}
	w = le.AppendUint64(w, h.domainSize)
	w = le.AppendUint32(w, h.mode)
	w = le.AppendUint32(w, uint32(h.maxLevel))
	for _, v := range [...]uint64{h.eps, h.seed, h.instances, h.groups} {
		w = le.AppendUint64(w, v)
	}
	w = le.AppendUint32(w, uint32(len(blobs)))
	for _, b := range blobs {
		w = le.AppendUint64(w, uint64(len(b)))
		w = append(w, b...)
	}
	return w
}

// unmarshalEnvelope decodes by indexing data: the returned blobs are
// sub-slices of data, not copies, so callers must not retain them past
// data's lifetime or write through them.
func unmarshalEnvelope(data []byte) (snapHeader, [][]byte, error) {
	var h snapHeader
	kind, err := SnapshotKind(data)
	if err != nil {
		return h, nil, err
	}
	if len(data) < envelopeHeaderLen {
		return h, nil, fmt.Errorf("spatial: truncated snapshot header: %d bytes, want %d", len(data), envelopeHeaderLen)
	}
	le := binary.LittleEndian
	p := data[12:] // past magic, version and kind, which SnapshotKind checked
	u32 := func() uint32 { v := le.Uint32(p); p = p[4:]; return v }
	u64 := func() uint64 { v := le.Uint64(p); p = p[8:]; return v }
	side := u32()
	h.kind, h.side, h.dims = kind, snapSide(side), u32()
	if h.side > sideRight {
		return h, nil, fmt.Errorf("spatial: unknown snapshot side %d", side)
	}
	if h.dims == 0 || h.dims > core.MaxDims {
		return h, nil, fmt.Errorf("spatial: snapshot dims %d outside [1, %d]", h.dims, core.MaxDims)
	}
	h.domainSize = u64()
	h.mode = u32()
	h.maxLevel = int32(u32())
	h.eps, h.seed, h.instances, h.groups = u64(), u64(), u64(), u64()
	nblobs := u32()
	if nblobs > maxSnapshotBlobs {
		return h, nil, fmt.Errorf("spatial: snapshot declares %d sub-sketches, max is %d", nblobs, maxSnapshotBlobs)
	}
	blobs := make([][]byte, nblobs)
	for i := range blobs {
		if len(p) < 8 {
			return h, nil, fmt.Errorf("spatial: truncated snapshot: sub-sketch %d length cut off", i)
		}
		n := u64()
		if n > uint64(len(p)) {
			return h, nil, fmt.Errorf("spatial: truncated snapshot: sub-sketch %d declares %d bytes, %d left", i, n, len(p))
		}
		blobs[i], p = p[:n:n], p[n:]
	}
	if len(p) != 0 {
		return h, nil, fmt.Errorf("spatial: %d trailing bytes after snapshot payload", len(p))
	}
	// Bound the declared sizing against the payload actually carried
	// BEFORE any decoder builds an estimator from the header: every sketch
	// kind stores at least one 8-byte counter per instance per sub-sketch,
	// so a tiny envelope claiming 2^30 instances is rejected here, not by
	// a huge xi-bank allocation in the estimator constructor.
	if h.instances == 0 || h.groups == 0 || h.instances%h.groups != 0 {
		return h, nil, fmt.Errorf("spatial: snapshot groups %d must divide instances %d (both positive)", h.groups, h.instances)
	}
	var payload uint64
	for _, b := range blobs {
		payload += uint64(len(b))
	}
	if h.instances > payload/8 {
		return h, nil, fmt.Errorf("spatial: snapshot declares %d instances but carries only %d payload bytes", h.instances, payload)
	}
	return h, blobs, nil
}

// ---- update record codec ----
//
// UpdateRecord has a stable binary form so update streams can be written
// ahead to a log and replayed across process generations (internal/wal
// frames and checksums the records; this codec only defines the payload
// bytes). The encoding is versionless by design - it is embedded in WAL
// records whose framing carries the format version - and uses varints so
// typical 2-d records cost a handful of bytes:
//
//	flags  byte    bit 0: delete (else insert); bit 1: point (else rect)
//	side   byte    UpdateSide
//	dims   uvarint
//	coords uvarint*  rect: lo,hi per dimension; point: one per dimension
//
// All varints are unsigned LEB128 (encoding/binary AppendUvarint).

const (
	recFlagDelete = 1 << 0
	recFlagPoint  = 1 << 1
)

// AppendBinary appends the record's stable binary encoding to dst and
// returns the extended slice; DecodeUpdateRecord inverts it.
func (u UpdateRecord) AppendBinary(dst []byte) []byte {
	var flags byte
	if u.Op == OpDelete {
		flags |= recFlagDelete
	}
	if u.Point != nil {
		flags |= recFlagPoint
	}
	dst = append(dst, flags, byte(u.Side))
	if u.Point != nil {
		dst = binary.AppendUvarint(dst, uint64(len(u.Point)))
		for _, x := range u.Point {
			dst = binary.AppendUvarint(dst, x)
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(u.Rect)))
	for _, iv := range u.Rect {
		dst = binary.AppendUvarint(dst, iv.Lo)
		dst = binary.AppendUvarint(dst, iv.Hi)
	}
	return dst
}

// DecodeUpdateRecord decodes one record from the front of data, returning
// the record and the number of bytes consumed.
func DecodeUpdateRecord(data []byte) (UpdateRecord, int, error) {
	var u UpdateRecord
	if len(data) < 2 {
		return u, 0, fmt.Errorf("spatial: truncated update record")
	}
	flags, side := data[0], UpdateSide(data[1])
	if flags&^(recFlagDelete|recFlagPoint) != 0 {
		return u, 0, fmt.Errorf("spatial: unknown update record flags %#x", flags)
	}
	if side > SideOuter {
		return u, 0, fmt.Errorf("spatial: unknown update side %d", side)
	}
	u.Side = side
	if flags&recFlagDelete != 0 {
		u.Op = OpDelete
	}
	n := 2
	dims, k := binary.Uvarint(data[n:])
	if k <= 0 {
		return u, 0, fmt.Errorf("spatial: truncated update record dims")
	}
	n += k
	if dims == 0 || dims > core.MaxDims {
		return u, 0, fmt.Errorf("spatial: update record dims %d outside [1, %d]", dims, core.MaxDims)
	}
	readCoord := func() (uint64, error) {
		x, k := binary.Uvarint(data[n:])
		if k <= 0 {
			return 0, fmt.Errorf("spatial: truncated update record coordinates")
		}
		n += k
		return x, nil
	}
	if flags&recFlagPoint != 0 {
		u.Point = make(geo.Point, dims)
		for i := range u.Point {
			x, err := readCoord()
			if err != nil {
				return u, 0, err
			}
			u.Point[i] = x
		}
		return u, n, nil
	}
	u.Rect = make(geo.HyperRect, dims)
	for i := range u.Rect {
		lo, err := readCoord()
		if err != nil {
			return u, 0, err
		}
		hi, err := readCoord()
		if err != nil {
			return u, 0, err
		}
		u.Rect[i] = geo.Interval{Lo: lo, Hi: hi}
	}
	return u, n, nil
}

// RoutingHash returns a stable 64-bit hash of the record's routing
// identity - side and geometry, deliberately NOT the operation - so an
// insert and the delete that later cancels it land on the same partition
// of a partitioned ingest. Any partitioning of a record stream is exact
// under merge (sketches are linear), so the hash only balances load; but
// op-independence keeps per-partition object counts non-negative, which
// makes partition counts individually meaningful.
func (u UpdateRecord) RoutingHash() uint64 {
	norm := u
	norm.Op = OpInsert
	// FNV-1a over the canonical binary encoding of the normalized record.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range norm.AppendBinary(make([]byte, 0, 64)) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// MergeSnapshots folds any number of SPE1 snapshots of same-config
// estimators into one snapshot, exactly as if every underlying update had
// been applied to a single estimator (sketches are linear projections, so
// the merged counters are bit-identical to a single build). This is the
// gather half of scatter-gather estimation over a partitioned cluster:
// fetch every partition's snapshot, merge, estimate. Config mismatches
// between the snapshots are rejected, and the merged snapshot's kind is
// returned for dispatch.
func MergeSnapshots(snaps ...[]byte) ([]byte, Kind, error) {
	if len(snaps) == 0 {
		return nil, 0, fmt.Errorf("spatial: MergeSnapshots needs at least one snapshot")
	}
	kind, err := SnapshotKind(snaps[0])
	if err != nil {
		return nil, 0, err
	}
	var e estimator
	if err := e.unmarshal(snaps[0], kind); err != nil {
		return nil, 0, err
	}
	for _, s := range snaps[1:] {
		if err := e.MergeSnapshot(s); err != nil {
			return nil, 0, err
		}
	}
	out, err := e.Marshal()
	if err != nil {
		return nil, 0, err
	}
	return out, kind, nil
}

// SnapshotKind reports which estimator type produced the snapshot, so
// registries can dispatch to the matching Unmarshal<Kind>Estimator. Only
// the fixed-size header prefix is examined - the payload is not parsed,
// so peeking at a large snapshot costs nothing.
func SnapshotKind(data []byte) (Kind, error) {
	if len(data) < 12 {
		return 0, fmt.Errorf("spatial: truncated snapshot header: %d bytes", len(data))
	}
	le := binary.LittleEndian
	magic, version, kind := le.Uint32(data), le.Uint32(data[4:]), le.Uint32(data[8:])
	if magic != envelopeMagic {
		return 0, fmt.Errorf("spatial: bad snapshot magic %#x (not an SPE1 estimator snapshot)", magic)
	}
	if version != SnapshotVersion {
		return 0, fmt.Errorf("spatial: snapshot version %d, this build reads version %d", version, SnapshotVersion)
	}
	k := Kind(kind)
	if k < KindJoin || k > KindContainment {
		return 0, fmt.Errorf("spatial: unknown snapshot kind %d", kind)
	}
	return k, nil
}
