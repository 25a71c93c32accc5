// Package wal implements a segmented, CRC-framed, append-only write-ahead
// log with group commit, the durability substrate of cmd/spatialserve.
//
// The log is a directory of numbered segment files. Each segment starts
// with a fixed header (magic, format version, segment sequence number) and
// is followed by length-prefixed records, each protected by a CRC-32C
// checksum of its payload. Appends are group-committed: concurrent
// Append calls are batched into one write (and, with Options.Fsync, one
// fsync) by a dedicated flusher goroutine, so logging cost amortizes
// across writers instead of serializing them - the property that keeps a
// WAL off a sharded-ingest hot path.
//
// Recovery semantics follow the usual WAL contract:
//
//   - A torn final record - a record in the highest-numbered segment whose
//     bytes run into end-of-file, or whose checksum fails with nothing
//     after it - is the signature of a crash mid-append. It is tolerated:
//     Open truncates it away before anything reads the log.
//   - A corrupt record anywhere else (checksum mismatch followed by more
//     data, or a malformed record in a non-final segment) is storage
//     corruption. It is reported as an error, never silently skipped:
//     records after it would otherwise replay against the wrong prefix
//     state.
//
// Positions (segment, byte offset) name record boundaries. A checkpoint
// stores the Pos returned by Pos or Rotate, and recovery reads the suffix
// after it with ReadFrom on the reopened log; TruncateBefore discards
// segments wholly older than a durable checkpoint.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic   = 0x5357414c // "SWAL" (stored little-endian: bytes 4c 41 57 53)
	segVersion = 1

	// segHeaderSize is the fixed segment-file header: magic u32 | version
	// u32 | sequence u64, all little-endian.
	segHeaderSize = 16

	// recHeaderSize frames every record: crc32c(payload) u32 | len u32.
	recHeaderSize = 8

	segSuffix = ".wal"
)

// MaxRecordBytes bounds a single record's payload. It is far above any
// legitimate record (the server caps request bodies well below it) and
// exists so a corrupted length field cannot drive a giant allocation.
const MaxRecordBytes = 1 << 28

// DefaultSegmentBytes is the segment rotation threshold used when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Pos names a record boundary in the log: the byte offset of a record's
// frame inside segment Seg. The zero Pos means "the beginning of the log".
type Pos struct {
	Seg uint64
	Off int64
}

// IsZero reports whether p is the zero position (the beginning of the log).
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

// Less orders positions by segment, then offset.
func (p Pos) Less(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// String formats the position as seg:offset.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// Options configures a WAL.
type Options struct {
	// Dir is the directory holding the segment files. It is created if
	// missing.
	Dir string
	// SegmentBytes is the rotation threshold: an append that would push a
	// segment past it opens a new segment first. Zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync makes every group commit fsync the segment file before
	// acknowledging its appenders, and fsyncs the directory on segment
	// creation. Without it a record is durable against process crashes
	// (the write has entered the kernel before Append returns) but not
	// against power loss.
	Fsync bool
	// Logf, when set, receives operational notices - in particular how
	// many torn-tail bytes Open truncated away after a crash.
	Logf func(format string, args ...any)
	// Hooks, when set, intercepts segment-file writes and fsyncs on the
	// append path. It exists for fault-injection tests (short writes,
	// ENOSPC, fsync errors); production leaves it nil.
	Hooks FileHooks
	// OnCommit, when set, is called on the flusher goroutine after every
	// group commit (successful or not) with that batch's statistics.
	// Observability hook: it runs on the append hot path between batches,
	// so it must be fast and must not call back into the WAL.
	OnCommit func(CommitStats)
	// OnCommitSpan, when set, is called beside OnCommit with the batch's
	// wall-clock window (start is taken just before the segment write).
	// Tracing hook: the server turns each group commit into a span so
	// slow fsyncs surface in retained traces. Same constraints as
	// OnCommit: fast, no calls back into the WAL.
	OnCommitSpan func(start time.Time, stats CommitStats)
}

// CommitStats describes one group commit for the Options.OnCommit
// observer: how many records and bytes the batch carried, how long the
// segment write and the fsync (zero when fsync is off) took, and whether
// the batch failed (poisoning the log).
type CommitStats struct {
	// Records is the number of appended records acknowledged together.
	Records int
	// Bytes is the total framed bytes written for the batch.
	Bytes int
	// WriteDuration is the wall time of the segment write.
	WriteDuration time.Duration
	// SyncDuration is the wall time of the fsync; zero with Fsync off.
	SyncDuration time.Duration
	// Err is the write or fsync error, nil on success.
	Err error
}

// FileHooks intercepts the WAL's segment-file writes and fsyncs so tests
// can inject I/O failures. Implementations must either perform the real
// operation on f or return the injected error (a short write returns the
// bytes actually written).
type FileHooks interface {
	// Write performs (or faults) one segment write.
	Write(f *os.File, p []byte) (int, error)
	// Sync performs (or faults) one segment fsync.
	Sync(f *os.File) error
}

// WAL is an open write-ahead log. All methods are safe for concurrent use.
type WAL struct {
	opts Options

	mu       sync.Mutex
	flushC   *sync.Cond // signals the flusher: pending work or close
	idleC    *sync.Cond // signals drain: pending empty and no flush running
	f        *os.File   // current segment file
	end      Pos        // position after the last enqueued record
	pending  []byte     // encoded frames not yet handed to the flusher
	waiters  []chan error
	flushing bool
	err      error // sticky I/O error; the log refuses writes after one
	closed   bool

	flusherDone chan struct{}
}

// Open opens (or creates) the log in opts.Dir, validates the tail of the
// final segment - truncating a torn final record, the crash-mid-append
// signature - and readies the log for appends after it.
func Open(opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < segHeaderSize+recHeaderSize {
		return nil, fmt.Errorf("wal: segment size %d smaller than one framed record", opts.SegmentBytes)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{opts: opts, flusherDone: make(chan struct{})}
	w.flushC = sync.NewCond(&w.mu)
	w.idleC = sync.NewCond(&w.mu)
	if len(seqs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := seqs[len(seqs)-1]
		end, torn, err := recoverTail(segPath(opts.Dir, last), last)
		if err != nil {
			return nil, err
		}
		if torn > 0 && opts.Logf != nil {
			// Loud by design: a tear is expected after a crash, but the
			// operator should see exactly how many (unacknowledged) bytes
			// were dropped.
			opts.Logf("wal: truncated a torn tail of %d byte(s) at %v (crash mid-append)", torn, Pos{Seg: last, Off: end})
		}
		f, err := os.OpenFile(segPath(opts.Dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.end = Pos{Seg: last, Off: end}
	}
	go w.flushLoop()
	return w, nil
}

// recoverTail validates the final segment and returns the offset of its
// end plus how many torn-tail bytes were truncated away. A malformed
// record that is NOT tail-shaped (more data follows it) is corruption and
// errors.
func recoverTail(path string, seq uint64) (end, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := info.Size()
	if size < segHeaderSize {
		// Crashed between creating the file and writing its header:
		// rewrite the header, the segment is empty.
		if err := f.Truncate(0); err != nil {
			return 0, 0, err
		}
		if err := writeSegHeader(f, seq); err != nil {
			return 0, 0, err
		}
		return segHeaderSize, size, nil
	}
	if err := checkSegHeader(f, seq); err != nil {
		return 0, 0, err
	}
	end, tear, err := scanRecords(f, size, seq, segHeaderSize, true, nil)
	if err != nil {
		return 0, 0, err
	}
	if tear {
		if err := f.Truncate(end); err != nil {
			return 0, 0, err
		}
		torn = size - end
	}
	return end, torn, nil
}

// Append durably appends one record and returns its position. It blocks
// until the record has been written (and fsynced, with Options.Fsync) by a
// group commit that may batch it with concurrent appends.
func (w *WAL) Append(payload []byte) (Pos, error) {
	if len(payload) > MaxRecordBytes {
		return Pos{}, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return Pos{}, err
	}
	frame := int64(recHeaderSize + len(payload))
	if w.end.Off+frame > w.opts.SegmentBytes && w.end.Off > segHeaderSize {
		if err := w.maybeRotateLocked(frame); err != nil {
			w.mu.Unlock()
			return Pos{}, err
		}
	}
	pos := w.end
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	w.pending = append(w.pending, hdr[:]...)
	w.pending = append(w.pending, payload...)
	w.end.Off += frame
	ch := make(chan error, 1)
	w.waiters = append(w.waiters, ch)
	w.flushC.Signal()
	w.mu.Unlock()
	if err := <-ch; err != nil {
		return Pos{}, err
	}
	return pos, nil
}

// flushLoop is the group-commit flusher: it drains every frame enqueued
// since the previous flush in one write (plus one fsync when configured)
// and acknowledges the batched appenders together.
func (w *WAL) flushLoop() {
	w.mu.Lock()
	for {
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.flushC.Wait()
		}
		if len(w.pending) == 0 || w.err != nil {
			// Closed with nothing left, or poisoned: fail any stragglers.
			err := w.err
			if err == nil {
				err = os.ErrClosed
			}
			for _, ch := range w.waiters {
				ch <- err
			}
			w.waiters = nil
			if w.closed || w.err != nil {
				break
			}
			continue
		}
		buf, waiters, f := w.pending, w.waiters, w.f
		w.pending, w.waiters = nil, nil
		w.flushing = true
		w.mu.Unlock()

		start := time.Now()
		_, err := w.write(f, buf)
		wrote := time.Since(start)
		var synced time.Duration
		if err == nil && w.opts.Fsync {
			syncStart := time.Now()
			err = w.sync(f)
			synced = time.Since(syncStart)
		}
		if w.opts.OnCommit != nil || w.opts.OnCommitSpan != nil {
			st := CommitStats{
				Records:       len(waiters),
				Bytes:         len(buf),
				WriteDuration: wrote,
				SyncDuration:  synced,
				Err:           err,
			}
			if w.opts.OnCommit != nil {
				w.opts.OnCommit(st)
			}
			if w.opts.OnCommitSpan != nil {
				w.opts.OnCommitSpan(start, st)
			}
		}

		w.mu.Lock()
		w.flushing = false
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("wal: append failed, log is poisoned: %w", err)
		}
		if err == nil && w.err != nil {
			err = w.err
		}
		for _, ch := range waiters {
			ch <- err
		}
		w.idleC.Broadcast()
	}
	w.mu.Unlock()
	close(w.flusherDone)
}

// write routes a segment write through the fault-injection hooks.
func (w *WAL) write(f *os.File, p []byte) (int, error) {
	if w.opts.Hooks != nil {
		return w.opts.Hooks.Write(f, p)
	}
	return f.Write(p)
}

// sync routes a segment fsync through the fault-injection hooks.
func (w *WAL) sync(f *os.File) error {
	if w.opts.Hooks != nil {
		return w.opts.Hooks.Sync(f)
	}
	return f.Sync()
}

// Err returns the sticky I/O error that has poisoned the log, or nil if
// the log is still appendable. Health probes use it to answer "is the WAL
// writable" without issuing a write.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *WAL) usableLocked() error {
	if w.closed {
		return os.ErrClosed
	}
	return w.err
}

// drainLocked waits until every enqueued frame has been handed to the OS.
func (w *WAL) drainLocked() error {
	for (len(w.pending) > 0 || w.flushing) && w.err == nil {
		w.idleC.Wait()
	}
	return w.err
}

// Pos returns the position one past the last appended record - the
// position the NEXT record will occupy, and the exact point a checkpoint
// of the current state should later replay from.
func (w *WAL) Pos() Pos {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// Sync flushes every outstanding append and fsyncs the current segment,
// regardless of Options.Fsync. The segment lock is held across the fsync
// so a concurrent append cannot rotate the file out from under it;
// appends arriving during the fsync wait for it.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if err := w.drainLocked(); err != nil {
		return err
	}
	return w.sync(w.f)
}

// Rotate drains pending appends, cuts a fresh segment and returns its
// first record position. Checkpoints rotate before capturing their
// position so that, once the checkpoint is durable, TruncateBefore can
// release every previous segment.
func (w *WAL) Rotate() (Pos, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return Pos{}, err
	}
	if err := w.rotateLocked(); err != nil {
		return Pos{}, err
	}
	return w.end, nil
}

// rotateLocked drains the current segment and unconditionally switches to
// a new one (the Rotate API).
func (w *WAL) rotateLocked() error {
	if err := w.drainLocked(); err != nil {
		return err
	}
	return w.switchSegmentLocked()
}

// maybeRotateLocked drains and, only if frame still does not fit the
// current segment, cuts a new one. The condition is re-checked after the
// drain because drainLocked releases the lock while waiting, and a
// concurrent append crossing the threshold at the same time may have
// already rotated - without the re-check both would rotate, leaving a
// spurious near-empty segment behind.
func (w *WAL) maybeRotateLocked(frame int64) error {
	if err := w.drainLocked(); err != nil {
		return err
	}
	if w.end.Off+frame <= w.opts.SegmentBytes || w.end.Off == segHeaderSize {
		return nil
	}
	return w.switchSegmentLocked()
}

// switchSegmentLocked closes the (drained) current segment and opens the
// next one.
func (w *WAL) switchSegmentLocked() error {
	if w.opts.Fsync {
		if err := w.sync(w.f); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.createSegment(w.end.Seg + 1)
}

// createSegment creates segment seq and makes it current. Caller holds mu
// (or is Open, before the flusher starts).
func (w *WAL) createSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(w.opts.Dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegHeader(f, seq); err != nil {
		f.Close()
		return err
	}
	if w.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(w.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.end = Pos{Seg: seq, Off: segHeaderSize}
	return nil
}

// TruncateBefore deletes every segment wholly older than p - the segments
// a durable checkpoint at p no longer needs. The segment containing p (and
// anything newer) is kept.
func (w *WAL) TruncateBefore(p Pos) error {
	w.mu.Lock()
	if p.Seg > w.end.Seg {
		w.mu.Unlock()
		return fmt.Errorf("wal: truncate position %v beyond the log end %v", p, w.end)
	}
	w.mu.Unlock()
	seqs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= p.Seg {
			break
		}
		if err := os.Remove(segPath(w.opts.Dir, seq)); err != nil {
			return err
		}
	}
	if w.opts.Fsync {
		return syncDir(w.opts.Dir)
	}
	return nil
}

// Close drains outstanding appends, stops the flusher and closes the
// current segment. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.flushC.Broadcast()
	w.mu.Unlock()
	<-w.flusherDone
	if w.opts.Fsync && w.err == nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	return w.f.Close()
}

// ErrTruncatedHistory reports a read position older than the oldest
// retained segment: a checkpoint has truncated the history the reader
// needs, and the reader must re-bootstrap from a snapshot instead.
var ErrTruncatedHistory = errors.New("wal: position predates the oldest retained segment")

// ErrFuturePosition reports a read position beyond the log's end. A
// reader can legitimately get here: it read records a leader later lost
// (a crash dropped an unsynced tail), so the history it sits on no
// longer exists - like ErrTruncatedHistory, the remedy is a fresh
// bootstrap, not a retry.
var ErrFuturePosition = errors.New("wal: read position beyond the log end")

// ErrNoRecordAt reports a read position inside the log at which no
// record decodes: it is not a record boundary. A reader lands there when
// it holds records a crashed leader lost and then rewrote with other
// lengths; like ErrFuturePosition, the remedy is a fresh bootstrap.
var ErrNoRecordAt = errors.New("wal: no record decodes at the read position")

// ReadFrom reads committed records of the OPEN log from position `from`
// (the zero Pos means the beginning), calling fn with each record's
// position and payload, and returns the position one past the last record
// delivered - the `from` of the next call. At most maxBytes of framed
// records are delivered per call (at least one record is always delivered
// when available); maxBytes <= 0 means no limit.
//
// This is the log's one reader: recovery reads the suffix after its
// checkpoint through it (Open has already trimmed a torn tail), and
// replication followers and rebalance moves tail a live log through it.
// Pending appends are drained first, so every record acknowledged before
// the call is visible; records are never torn (only positions at or
// before the drained end are read), so any malformed record read is
// corruption and errors. A `from` older than the oldest retained segment
// returns ErrTruncatedHistory - the signal to re-bootstrap from a
// snapshot. fn must not retain the payload slice.
func (w *WAL) ReadFrom(from Pos, maxBytes int64, fn func(pos Pos, payload []byte) error) (Pos, error) {
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return Pos{}, err
	}
	if err := w.drainLocked(); err != nil {
		w.mu.Unlock()
		return Pos{}, err
	}
	end := w.end
	w.mu.Unlock()

	seqs, err := listSegments(w.opts.Dir)
	if err != nil {
		return Pos{}, err
	}
	if len(seqs) == 0 {
		return Pos{}, fmt.Errorf("wal: open log has no segments")
	}
	if from.IsZero() {
		from = Pos{Seg: seqs[0], Off: segHeaderSize}
	}
	if from.Seg < seqs[0] {
		return Pos{}, fmt.Errorf("%w: reading from %v, oldest segment is %d", ErrTruncatedHistory, from, seqs[0])
	}
	if end.Less(from) {
		return Pos{}, fmt.Errorf("%w: reading from %v, log ends at %v", ErrFuturePosition, from, end)
	}
	next, budget := from, maxBytes
	deliver := func(pos Pos, payload []byte) error {
		if err := fn(pos, payload); err != nil {
			return err
		}
		frame := recHeaderSize + int64(len(payload))
		next = Pos{Seg: pos.Seg, Off: pos.Off + frame}
		if budget -= frame; maxBytes > 0 && budget <= 0 {
			return errBudgetSpent
		}
		return nil
	}
	for i, seq := range seqs {
		if seq < from.Seg || seq > end.Seg {
			continue
		}
		if seq != from.Seg && seqs[i-1] < from.Seg {
			return Pos{}, fmt.Errorf("wal: segment %d holding read position %v is missing", from.Seg, from)
		}
		if seq != from.Seg && seq != seqs[i-1]+1 {
			return Pos{}, fmt.Errorf("wal: segment gap between %d and %d", seqs[i-1], seq)
		}
		err := w.readSegment(seq, max(next.Off, segHeaderSize), end, deliver)
		if err == errBudgetSpent {
			return next, nil
		}
		if err != nil {
			return Pos{}, err
		}
		if seq < end.Seg {
			// Advance past this fully-read segment; the next one's records
			// start right after its header.
			next = Pos{Seg: seq + 1, Off: segHeaderSize}
		}
	}
	return next, nil
}

// errBudgetSpent stops a ReadFrom whose byte budget is exhausted.
var errBudgetSpent = errors.New("wal: read budget spent")

// readSegment delivers the committed records of segment seq from offset
// off up to the drained end.
func (w *WAL) readSegment(seq uint64, off int64, end Pos, fn func(Pos, []byte) error) error {
	f, err := os.Open(segPath(w.opts.Dir, seq))
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: segment %d removed mid-read", ErrTruncatedHistory, seq)
		}
		return err
	}
	defer f.Close()
	if err := checkSegHeader(f, seq); err != nil {
		return err
	}
	limit := end.Off
	if seq < end.Seg {
		info, err := f.Stat()
		if err != nil {
			return err
		}
		limit = info.Size()
	}
	_, _, err = scanRecords(f, limit, seq, off, false, fn)
	return err
}

// scanRecords is the log's one record scanner: it delivers the records
// of segment seq from offset start up to size (fn may be nil) and returns
// the offset one past the last valid record and whether that point is a
// tear (a torn final record follows it). Open checks the final segment's
// tail with it, ReadFrom reads committed records with it.
//
// Tail-shaped damage - a frame running past size, an absurd length
// field, or a checksum mismatch on the final record - is a tear,
// tolerated only where last is set (the final segment, read to its
// end-of-file by Open). A checksum mismatch with more data after it is
// corruption mid-segment and always errors: silently skipping it would
// replay the records after it against the wrong prefix state.
func scanRecords(f io.ReaderAt, size int64, seq uint64, start int64, last bool, fn func(Pos, []byte) error) (int64, bool, error) {
	if start > size {
		return start, false, fmt.Errorf("%w: offset %d lies beyond segment %d's end %d", ErrFuturePosition, start, seq, size)
	}
	off := start
	// A read of the committed log (last unset) that finds no record at
	// its very first offset was handed a position that is no record
	// boundary.
	noRecord := func(err error) error {
		if !last && off == start {
			return fmt.Errorf("%w: %w", ErrNoRecordAt, err)
		}
		return err
	}
	var buf []byte
	for off < size {
		tear := func(what string) (int64, bool, error) {
			if last {
				return off, true, nil
			}
			return off, false, noRecord(fmt.Errorf("wal: segment %d offset %d: %s in a non-final segment or inside the committed log", seq, off, what))
		}
		if size-off < recHeaderSize {
			return tear("torn record header")
		}
		var hdr [recHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return off, false, err
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:])
		n := int64(binary.LittleEndian.Uint32(hdr[4:]))
		if n > MaxRecordBytes {
			return tear(fmt.Sprintf("absurd record length %d", n))
		}
		if off+recHeaderSize+n > size {
			return tear("record runs past end of segment")
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := f.ReadAt(buf, off+recHeaderSize); err != nil {
			return off, false, err
		}
		if crc32.Checksum(buf, castagnoli) != wantCRC {
			if last && off+recHeaderSize+n == size {
				// The frame reaches exactly to end-of-file: the classic
				// torn page, where the tail of the final write never hit
				// the disk.
				return off, true, nil
			}
			return off, false, noRecord(fmt.Errorf("wal: segment %d offset %d: checksum mismatch on a record followed by more data (corruption, not a torn tail); refusing to skip records - if the damaged suffix is known to be unacknowledged, truncate the segment file to offset %d by hand", seq, off, off))
		}
		if fn != nil {
			if err := fn(Pos{Seg: seq, Off: off}, buf); err != nil {
				return off, false, err
			}
		}
		off += recHeaderSize + n
	}
	return off, false, nil
}

func writeSegHeader(f *os.File, seq uint64) error {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	_, err := f.Write(hdr[:])
	return err
}

func checkSegHeader(f io.ReaderAt, seq uint64) error {
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: segment %d: reading its header: %w", seq, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != segMagic {
		return fmt.Errorf("wal: segment %d: bad magic %#x", seq, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segVersion {
		return fmt.Errorf("wal: segment %d: format version %d, this build reads %d", seq, v, segVersion)
	}
	if s := binary.LittleEndian.Uint64(hdr[8:]); s != seq {
		return fmt.Errorf("wal: segment file %d declares sequence %d", seq, s)
	}
	return nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", seq, segSuffix))
}

// listSegments returns the segment sequence numbers present in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) || len(name) != 16+len(segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil || seq == 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
