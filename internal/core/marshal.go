package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary serialization of sketches. A sketch is fully determined by its
// configuration (the xi-families derive deterministically from the seed)
// and its counters, so synopses can be shipped between processes - e.g.
// built at the edge of a stream and merged or queried centrally - at a cost
// of a few bytes per counter. All integers are little-endian; the layout
// is in docs/SNAPSHOT_FORMAT.md. Encoding appends into one pre-sized slice
// and decoding indexes the input, so neither allocates per field.

// marshalMagic opens every serialized sketch; the kind code (Kind)
// follows it.
const marshalMagic = 0x53504b31 // "SPK1"

var le = binary.LittleEndian

// configSize is the encoded length of marshalConfig's output for c.
func configSize(c Config) int {
	return 4 + 4*len(c.LogDomain) + 4 + 4*len(c.MaxLevel) + 3*8
}

func marshalConfig(b []byte, c Config) []byte {
	b = le.AppendUint32(b, uint32(c.Dims))
	for _, h := range c.LogDomain {
		b = le.AppendUint32(b, uint32(int32(h)))
	}
	hasML := uint32(0)
	if c.MaxLevel != nil {
		hasML = 1
	}
	b = le.AppendUint32(b, hasML)
	for _, ml := range c.MaxLevel {
		b = le.AppendUint32(b, uint32(int32(ml)))
	}
	b = le.AppendUint64(b, uint64(c.Instances))
	b = le.AppendUint64(b, uint64(c.Groups))
	return le.AppendUint64(b, c.Seed)
}

// maxWireInstances bounds the instance count accepted from the wire. It
// matches the planner's refusal threshold (PlanJoinInstances caps k1 at
// 2^30), so no legitimately-sized sketch can hit it, while corrupted or
// hostile headers are rejected before any allocation scales with them.
const maxWireInstances = 1 << 30

// errTruncated reports a serialized sketch that ends inside a field.
var errTruncated = fmt.Errorf("core: truncated sketch: %w", io.ErrUnexpectedEOF)

// reader decodes little-endian fields off the front of a byte slice. A
// read past the end yields zero and sets short, so a decoder can read a
// run of fields and check once before acting on any of them.
type reader struct {
	b     []byte
	short bool
}

func (r *reader) u32() uint32 {
	if len(r.b) < 4 {
		r.b, r.short = nil, true
		return 0
	}
	v := le.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.b, r.short = nil, true
		return 0
	}
	v := le.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func unmarshalConfig(r *reader) (Config, error) {
	var c Config
	dims := r.u32()
	if r.short {
		return c, errTruncated
	}
	if dims == 0 || dims > MaxDims {
		return c, fmt.Errorf("core: bad dims %d in serialized sketch", dims)
	}
	c.Dims = int(dims)
	c.LogDomain = make([]int, c.Dims)
	for i := range c.LogDomain {
		c.LogDomain[i] = int(int32(r.u32()))
	}
	switch hasML := r.u32(); {
	case hasML > 1:
		return c, fmt.Errorf("core: bad level-cap flag %d in serialized sketch", hasML)
	case hasML == 1:
		c.MaxLevel = make([]int, c.Dims)
		for i := range c.MaxLevel {
			c.MaxLevel[i] = int(int32(r.u32()))
		}
	}
	inst, groups := r.u64(), r.u64()
	c.Seed = r.u64()
	if r.short {
		return c, errTruncated
	}
	if inst == 0 || inst > maxWireInstances {
		return c, fmt.Errorf("core: instances %d in serialized sketch outside [1, %d]", inst, maxWireInstances)
	}
	if groups == 0 || groups > inst || inst%groups != 0 {
		return c, fmt.Errorf("core: groups %d in serialized sketch must divide instances %d", groups, inst)
	}
	c.Instances, c.Groups = int(inst), int(groups)
	return c, nil
}

// MarshalBinary serializes the sketch together with its configuration.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	cfg := s.plan.cfg
	b := make([]byte, 0, 2*4+configSize(cfg)+2*8+8*len(s.counters))
	b = le.AppendUint32(b, marshalMagic)
	b = le.AppendUint32(b, uint32(s.kind))
	b = marshalConfig(b, cfg)
	b = le.AppendUint64(b, uint64(s.count))
	b = le.AppendUint64(b, uint64(len(s.counters)))
	for _, c := range s.counters {
		b = le.AppendUint64(b, uint64(c))
	}
	return b, nil
}

// UnmarshalSketch reconstructs a sketch of kind k (and its plan) from
// MarshalBinary output. A sketch of any other kind is refused.
func UnmarshalSketch(k Kind, data []byte) (*Sketch, error) {
	r := &reader{b: data}
	magic, kind := r.u32(), Kind(r.u32())
	if r.short {
		return nil, errTruncated
	}
	if magic != marshalMagic {
		return nil, fmt.Errorf("core: bad sketch magic %#x", magic)
	}
	if kind != k || !k.valid() {
		return nil, fmt.Errorf("core: sketch kind %d, want %d", uint32(kind), uint32(k))
	}
	cfg, err := unmarshalConfig(r)
	if err != nil {
		return nil, err
	}
	count, n := int64(r.u64()), r.u64()
	if r.short {
		return nil, errTruncated
	}
	if n > uint64(len(r.b)/8) {
		return nil, fmt.Errorf("core: truncated sketch: %d counters declared, %d bytes left", n, len(r.b))
	}
	if uint64(len(r.b)) != 8*n {
		return nil, fmt.Errorf("core: %d trailing bytes after the sketch's counters", uint64(len(r.b))-8*n)
	}
	// Cross-check the declared instance count against the counter payload
	// BEFORE building a plan: a corrupted ~60-byte header claiming
	// Instances = 1<<40 must be rejected here, not by a multi-terabyte
	// xi-bank allocation in NewPlan. Instances is already bounded by
	// maxWireInstances and dims by MaxDims, so the product cannot overflow.
	if want := uint64(cfg.Instances) * uint64(k.countersPerInstance(cfg.Dims)); n != want {
		return nil, fmt.Errorf("core: sketch declares %d counters, config (%d instances, %d dims) requires %d",
			n, cfg.Instances, cfg.Dims, want)
	}
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	s := p.NewSketch(k)
	for i := range s.counters {
		s.counters[i] = int64(le.Uint64(r.b[8*i:]))
	}
	s.count = count
	return s, nil
}
