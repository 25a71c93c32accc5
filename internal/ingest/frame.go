// Package ingest defines the length-framed binary protocol spoken on a
// /v1/ingest streaming connection: sequenced batches of the library's
// stable UpdateRecord encoding, acknowledged cumulatively after WAL
// commit, so a client that retries every ambiguous failure gets
// exactly-once application by construction (the server dedups on a
// persisted per-session high-water mark). See docs/INGEST_PROTOCOL.md
// for the full wire contract and failure matrix.
//
// Every frame is `type byte | uvarint bodyLen | body`. Declared sizes
// are bounded BEFORE any allocation (MaxFrameBytes, MaxSessionIDBytes,
// the per-record minimum in DecodeRecords), the same hostile-input
// stance as the snapshot envelope: a malicious peer can waste its own
// bandwidth, not the server's memory.
package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	spatial "repro"
)

// Protocol is the HTTP Upgrade token for the streaming endpoint; the
// trailing /1 is the wire-format version.
const Protocol = "spatial-ingest/1"

// Size bounds, checked before allocation on both ends.
const (
	// MaxFrameBytes caps one frame body. At the codec's ~5 bytes per
	// typical 2-d record this is room for ~3M records per batch - far
	// past the point where batching stops helping.
	MaxFrameBytes = 16 << 20
	// MaxSessionIDBytes caps the client-chosen session identifier.
	MaxSessionIDBytes = 128
)

// FrameType tags one frame.
type FrameType byte

// The frame types. Hello/HelloAck handshake once per connection, Batch
// flows client to server, Ack and Error flow server to client.
const (
	FrameHello    FrameType = 1 // client: session + estimator key
	FrameHelloAck FrameType = 2 // server: watermark to resume from + window
	FrameBatch    FrameType = 3 // client: seq + records
	FrameAck      FrameType = 4 // server: cumulative durable seq
	FrameError    FrameType = 5 // server: code + message, then close
)

// ErrorCode classifies a FrameError. Terminal codes mean the stream (or
// the offending batch) can never succeed; retryable codes mean the
// client should reconnect with backoff and resume.
type ErrorCode byte

// The error codes.
const (
	// CodeBadRequest is terminal: malformed frame, invalid record,
	// session/estimator mismatch.
	CodeBadRequest ErrorCode = 1
	// CodeNotFound is terminal: the estimator does not exist.
	CodeNotFound ErrorCode = 2
	// CodeOverloaded is retryable: admission control or the session
	// table shed the stream; reconnect with backoff.
	CodeOverloaded ErrorCode = 3
	// CodeInternal is retryable: WAL or apply failure; the batch was
	// not acked, so resending after reconnect is safe.
	CodeInternal ErrorCode = 4
)

// String returns the code's wire-stable name.
func (c ErrorCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad_request"
	case CodeNotFound:
		return "not_found"
	case CodeOverloaded:
		return "overloaded"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("ErrorCode(%d)", byte(c))
}

// Retryable reports whether a client should reconnect and resume after
// receiving this code, rather than surface a terminal error.
func (c ErrorCode) Retryable() bool {
	return c == CodeOverloaded || c == CodeInternal
}

// StreamError is a decoded FrameError; it implements error so clients
// can surface it directly.
type StreamError struct {
	Code ErrorCode
	Msg  string
}

// Error formats the code and message.
func (e *StreamError) Error() string {
	return fmt.Sprintf("ingest stream %s: %s", e.Code, e.Msg)
}

// Hello is the client's handshake: which session is resuming into which
// estimator. The estimator key is the server's registry key (tenant-
// qualified where applicable, e.g. "acme/objects").
type Hello struct {
	Session   string
	Estimator string
}

// HelloAck is the server's handshake reply: the session's durable
// high-water mark (the client resumes from Watermark+1) and the credit
// window - the maximum number of unacked batches the client may keep in
// flight.
type HelloAck struct {
	Watermark     uint64
	WindowBatches uint32
}

// Batch is one decoded batch frame: a client-assigned sequence number
// (strictly increasing per session, starting at 1), the declared record
// count, and the raw concatenated UpdateRecord encodings. Records stay
// raw so routing/logging can reuse the bytes; DecodeRecords parses them.
type Batch struct {
	Seq     uint64
	Count   uint64
	Records []byte
}

// AppendFrame appends a complete frame (type, length, body) to dst.
func AppendFrame(dst []byte, t FrameType, body []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// ReadFrame reads one frame, bounding the declared body length by
// MaxFrameBytes before allocating. io.EOF surfaces unchanged when the
// connection closes cleanly between frames.
func ReadFrame(br *bufio.Reader) (FrameType, []byte, error) {
	return ReadFrameLimit(br, MaxFrameBytes)
}

// ReadFrameLimit is ReadFrame with the body bounded by limit instead of
// MaxFrameBytes, for protocols on this frame layer whose bodies have
// other bounds.
func ReadFrameLimit(br *bufio.Reader, limit uint64) (FrameType, []byte, error) {
	t, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: reading frame length: %w", err)
	}
	if n > limit {
		return 0, nil, fmt.Errorf("ingest: frame of %d bytes exceeds limit %d", n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, fmt.Errorf("ingest: reading frame body: %w", err)
	}
	return FrameType(t), body, nil
}

// AppendHello appends a complete Hello frame.
func AppendHello(dst []byte, h Hello) []byte {
	body := binary.AppendUvarint(nil, uint64(len(h.Session)))
	body = append(body, h.Session...)
	body = binary.AppendUvarint(body, uint64(len(h.Estimator)))
	body = append(body, h.Estimator...)
	return AppendFrame(dst, FrameHello, body)
}

// DecodeHello decodes a Hello frame body, enforcing the session-ID
// bound and requiring both fields non-empty.
func DecodeHello(body []byte) (Hello, error) {
	var h Hello
	s, rest, err := cutString(body, "session")
	if err != nil {
		return h, err
	}
	if len(s) == 0 || len(s) > MaxSessionIDBytes {
		return h, fmt.Errorf("ingest: session ID length %d outside [1, %d]", len(s), MaxSessionIDBytes)
	}
	est, rest, err := cutString(rest, "estimator")
	if err != nil {
		return h, err
	}
	if len(est) == 0 {
		return h, fmt.Errorf("ingest: empty estimator key")
	}
	if len(rest) != 0 {
		return h, fmt.Errorf("ingest: %d trailing bytes after hello", len(rest))
	}
	h.Session, h.Estimator = s, est
	return h, nil
}

// AppendHelloAck appends a complete HelloAck frame.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	body := binary.AppendUvarint(nil, a.Watermark)
	body = binary.AppendUvarint(body, uint64(a.WindowBatches))
	return AppendFrame(dst, FrameHelloAck, body)
}

// DecodeHelloAck decodes a HelloAck frame body.
func DecodeHelloAck(body []byte) (HelloAck, error) {
	var a HelloAck
	wm, n := binary.Uvarint(body)
	if n <= 0 {
		return a, fmt.Errorf("ingest: truncated hello-ack watermark")
	}
	win, k := binary.Uvarint(body[n:])
	if k <= 0 || win > 1<<31 {
		return a, fmt.Errorf("ingest: bad hello-ack window")
	}
	if len(body) != n+k {
		return a, fmt.Errorf("ingest: %d trailing bytes after hello-ack", len(body)-n-k)
	}
	a.Watermark, a.WindowBatches = wm, uint32(win)
	return a, nil
}

// AppendBatch appends a complete Batch frame carrying count records
// pre-encoded in records (concatenated UpdateRecord.AppendBinary).
func AppendBatch(dst []byte, seq uint64, count int, records []byte) []byte {
	body := binary.AppendUvarint(nil, seq)
	body = binary.AppendUvarint(body, uint64(count))
	body = append(body, records...)
	return AppendFrame(dst, FrameBatch, body)
}

// DecodeBatch splits a Batch frame body into seq, declared count and the
// raw record bytes. The count is bounded by the records' minimum
// encoded size (3 bytes each) before anything downstream trusts it, so
// a hostile header cannot make the server size buffers for records the
// body does not carry. Seq 0 is reserved (it is the empty watermark).
func DecodeBatch(body []byte) (Batch, error) {
	var b Batch
	seq, n := binary.Uvarint(body)
	if n <= 0 {
		return b, fmt.Errorf("ingest: truncated batch seq")
	}
	if seq == 0 {
		return b, fmt.Errorf("ingest: batch seq 0 is reserved")
	}
	count, k := binary.Uvarint(body[n:])
	if k <= 0 {
		return b, fmt.Errorf("ingest: truncated batch count")
	}
	recs := body[n+k:]
	if count > uint64(len(recs))/3 {
		return b, fmt.Errorf("ingest: batch declares %d records, body holds at most %d", count, len(recs)/3)
	}
	b.Seq, b.Count, b.Records = seq, count, recs
	return b, nil
}

// DecodeRecords parses the batch's raw bytes into exactly Count records,
// rejecting trailing bytes - validation happens against an estimator,
// not here, so the frame layer stays estimator-agnostic.
func (b Batch) DecodeRecords() ([]spatial.UpdateRecord, error) {
	recs := make([]spatial.UpdateRecord, 0, b.Count)
	rest := b.Records
	for i := uint64(0); i < b.Count; i++ {
		rec, n, err := spatial.DecodeUpdateRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("ingest: record %d of %d: %w", i, b.Count, err)
		}
		recs = append(recs, rec)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after %d records", len(rest), b.Count)
	}
	return recs, nil
}

// AppendAck appends a complete Ack frame: every batch with sequence
// number <= seq is durably applied (cumulative, so a coalesced ack for
// the newest batch covers the ones before it).
func AppendAck(dst []byte, seq uint64) []byte {
	return AppendFrame(dst, FrameAck, binary.AppendUvarint(nil, seq))
}

// DecodeAck decodes an Ack frame body.
func DecodeAck(body []byte) (uint64, error) {
	seq, n := binary.Uvarint(body)
	if n <= 0 || len(body) != n {
		return 0, fmt.Errorf("ingest: malformed ack")
	}
	return seq, nil
}

// AppendError appends a complete Error frame.
func AppendError(dst []byte, code ErrorCode, msg string) []byte {
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	body := append([]byte{byte(code)}, msg...)
	return AppendFrame(dst, FrameError, body)
}

// DecodeError decodes an Error frame body.
func DecodeError(body []byte) (*StreamError, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("ingest: empty error frame")
	}
	return &StreamError{Code: ErrorCode(body[0]), Msg: string(body[1:])}, nil
}

// cutString reads one `uvarint len | bytes` string off the front of b.
func cutString(b []byte, what string) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return "", nil, fmt.Errorf("ingest: truncated %s length", what)
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return "", nil, fmt.Errorf("ingest: %s length %d exceeds remaining %d bytes", what, n, len(b))
	}
	return string(b[:n]), b[n:], nil
}
