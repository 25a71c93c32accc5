package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect reads the log in dir from position from as recovery does:
// Open (which trims a torn tail), then ReadFrom.
func collect(t *testing.T, dir string, from Pos) (recs [][]byte, poss []Pos) {
	t.Helper()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	recs, poss, err = readAll(w, from)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return recs, poss
}

// readAll reads every record of the open log w from position from.
func readAll(w *WAL, from Pos) (recs [][]byte, poss []Pos, err error) {
	_, err = w.ReadFrom(from, 0, func(p Pos, payload []byte) error {
		recs = append(recs, append([]byte(nil), payload...))
		poss = append(poss, p)
		return nil
	})
	return recs, poss, err
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var wantPos []Pos
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i%17)))
		pos, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
		wantPos = append(wantPos, pos)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, gotPos := collect(t, dir, Pos{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
		if gotPos[i] != wantPos[i] {
			t.Fatalf("record %d at %v, Append reported %v", i, gotPos[i], wantPos[i])
		}
	}
	// Reopen appends after the existing tail.
	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, dir, Pos{})
	if len(got) != len(want)+1 || string(got[len(got)-1]) != "after-reopen" {
		t.Fatalf("after reopen got %d records, last %q", len(got), got[len(got)-1])
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, Pos{})
	if len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		if seen[string(r)] {
			t.Fatalf("record %q appears twice", r)
		}
		seen[string(r)] = true
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(seqs))
	}
	return segPath(dir, seqs[len(seqs)-1])
}

func TestTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the file tail.
	path := lastSegment(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	// Open truncates the tear, reading stops in front of it, and appends
	// continue after it.
	var torn []string
	w, err = Open(Options{Dir: dir, Logf: func(format string, args ...any) { torn = append(torn, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	// The last frame ("rec-9", 13 bytes) lost 3 bytes: 10 remain to trim.
	if len(torn) != 1 || !strings.Contains(torn[0], "torn tail of 10 byte(s)") {
		t.Fatalf("Open reported %q, want one 10-byte torn tail", torn)
	}
	got, _, err := readAll(w, Pos{})
	if err != nil || len(got) != 9 {
		t.Fatalf("read %d records through a torn tail (err %v), want 9", len(got), err)
	}
	if _, err := w.Append([]byte("post-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, dir, Pos{})
	if len(got) != 10 || string(got[9]) != "post-tear" {
		t.Fatalf("after tear recovery got %d records, last %q", len(got), got[len(got)-1])
	}
}

func TestTornHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment creation and header write.
	if err := os.WriteFile(segPath(dir, 2), []byte{0x4c, 0x41}, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open rewrites the header; the log still reads as its one record.
	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := readAll(w, Pos{}); err != nil || len(got) != 1 {
		t.Fatalf("read %d records (err %v), want 1", len(got), err)
	}
	if _, err := w.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, Pos{})
	if len(got) != 2 || string(got[1]) != "two" {
		t.Fatalf("got %d records after header-only recovery", len(got))
	}
}

func TestCorruptCRCMidSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the SECOND record: a checksum mismatch with
	// more records after it must be an error, never a silent skip.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(recHeaderSize + len("record-number-0"))
	data[segHeaderSize+frame+recHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open must refuse it: the damage is in the final segment but is not
	// tail-shaped.
	if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Open accepted a segment with mid-segment corruption: %v", err)
	}
}

func TestCorruptionInNonFinalSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("y", 30)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(seqs))
	}
	// Truncate the FIRST segment: even tail-shaped damage in a non-final
	// segment is corruption.
	first := segPath(dir, seqs[0])
	info, _ := os.Stat(first)
	if err := os.Truncate(first, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	// Open checks only the final segment; reading the first one errors.
	w, err = Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, _, err = readAll(w, Pos{})
	if err == nil || !strings.Contains(err.Error(), "non-final segment") {
		t.Fatalf("non-final segment damage read without error: %v", err)
	}
}

func TestReplayFromMidSegmentPosition(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var poss []Pos
	for i := 0; i < 10; i++ {
		pos, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		poss = append(poss, pos)
	}
	end := w.Pos()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Replaying from record k's position yields records k..9 exactly.
	for _, k := range []int{0, 3, 9} {
		got, _ := collect(t, dir, poss[k])
		if len(got) != 10-k {
			t.Fatalf("replay from %v: %d records, want %d", poss[k], len(got), 10-k)
		}
		if string(got[0]) != fmt.Sprintf("rec-%d", k) {
			t.Fatalf("replay from %v starts at %q", poss[k], got[0])
		}
	}
	// Replaying from the end position yields nothing.
	if got, _ := collect(t, dir, end); len(got) != 0 {
		t.Fatalf("replay from end produced %d records", len(got))
	}
}

func TestRotateAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("pre-%d-%s", i, strings.Repeat("z", 40)))); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Off != segHeaderSize {
		t.Fatalf("rotation position %v is not a segment start", cut)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) == 0 || seqs[0] != cut.Seg {
		t.Fatalf("truncation left segments %v, want first = %d", seqs, cut.Seg)
	}
	got, _, err := readAll(w, cut)
	if err != nil || len(got) != 5 || string(got[0]) != "post-0" {
		t.Fatalf("post-truncation read: %d records (err %v)", len(got), err)
	}
	// Reading from a truncated-away position must error, not return a
	// partial stream.
	if _, _, err := readAll(w, Pos{Seg: 1, Off: segHeaderSize}); err == nil {
		t.Fatal("read from a truncated position succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncAndFsyncMode(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir, Pos{}); len(got) != 1 {
		t.Fatalf("got %d records", len(got))
	}
	// Double close is fine; appends after close are not.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestEmptyAndMissingDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "nested")
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if p := w.Pos(); p.Seg != 1 || p.Off != segHeaderSize {
		t.Fatalf("fresh log position %v", p)
	}
	if got, _, err := readAll(w, Pos{}); err != nil || len(got) != 0 {
		t.Fatalf("reading a fresh log: %d records, err %v", len(got), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFromLiveLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var want [][]byte
	for i := 0; i < 60; i++ {
		payload := []byte(fmt.Sprintf("live-%03d-%s", i, strings.Repeat("y", i%11)))
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
	}
	// Full read from the beginning of the OPEN log, no budget.
	var got [][]byte
	next, err := w.ReadFrom(Pos{}, 0, func(p Pos, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if next != w.Pos() {
		t.Fatalf("next = %v, log end = %v", next, w.Pos())
	}
	// Tail: append more, read only the suffix from next.
	if _, err := w.Append([]byte("tail-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("tail-2")); err != nil {
		t.Fatal(err)
	}
	var tail [][]byte
	next2, err := w.ReadFrom(next, 0, func(p Pos, payload []byte) error {
		tail = append(tail, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || string(tail[0]) != "tail-1" || string(tail[1]) != "tail-2" {
		t.Fatalf("tail read = %q", tail)
	}
	// Reading from the end returns no records and the same position.
	n := 0
	next3, err := w.ReadFrom(next2, 0, func(Pos, []byte) error { n++; return nil })
	if err != nil || n != 0 || next3 != next2 {
		t.Fatalf("read-at-end: n=%d next=%v err=%v", n, next3, err)
	}
}

func TestReadFromBudgetResumes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var want []string
	for i := 0; i < 40; i++ {
		payload := fmt.Sprintf("budget-%02d-%s", i, strings.Repeat("z", 50))
		if _, err := w.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
	}
	// Drain in small budgeted chunks; every chunk must deliver at least one
	// record and the concatenation must be the full log.
	var got []string
	pos := Pos{}
	for {
		before := len(got)
		next, err := w.ReadFrom(pos, 100, func(p Pos, payload []byte) error {
			got = append(got, string(payload))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == before {
			break
		}
		pos = next
	}
	if len(got) != len(want) {
		t.Fatalf("chunked read got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReadFromTruncatedHistory(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := w.Pos()
	for i := 0; i < 30; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadFrom(start, 0, func(Pos, []byte) error { return nil }); !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("reading truncated history: err = %v, want ErrTruncatedHistory", err)
	}
	// Reading from the cut still works.
	n := 0
	if _, err := w.ReadFrom(cut, 0, func(Pos, []byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("read from cut: n=%d err=%v", n, err)
	}
}

// TestReadFromPastSegmentEnd checks that a position past the end of a
// non-final segment - history the log does not hold - is
// ErrFuturePosition, not a silent skip to the next segment's records.
func TestReadFromPastSegmentEnd(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err = w.ReadFrom(Pos{Seg: 1, Off: 1000}, 0, func(Pos, []byte) error { n++; return nil })
	if !errors.Is(err, ErrFuturePosition) || n != 0 {
		t.Fatalf("reading past segment 1's end: %d records, err %v; want none and ErrFuturePosition", n, err)
	}
}

// TestReadFromInsideRecord: a position inside a committed record - no
// record boundary - is ErrNoRecordAt, whatever garbage its bytes decode
// to, while the boundary itself reads.
func TestReadFromInsideRecord(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("one record of some length")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadFrom(Pos{Seg: 1, Off: segHeaderSize}, 0, func(Pos, []byte) error { return nil }); err != nil {
		t.Fatalf("reading from the record boundary: %v", err)
	}
	for _, off := range []int64{segHeaderSize + 1, segHeaderSize + 4, segHeaderSize + recHeaderSize} {
		_, err := w.ReadFrom(Pos{Seg: 1, Off: off}, 0, func(Pos, []byte) error { return nil })
		if !errors.Is(err, ErrNoRecordAt) {
			t.Errorf("reading from 1:%d inside the record: err %v, want ErrNoRecordAt", off, err)
		}
	}
}

func TestReadFromSeesDrainedAppends(t *testing.T) {
	// ReadFrom drains the group-commit queue first, so a record appended
	// (acknowledged) before the call is always delivered, even when the
	// reader races fresh writers.
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := 0
	if _, err := w.ReadFrom(Pos{}, 0, func(Pos, []byte) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 100 {
		t.Fatalf("saw %d records, want all 100 acknowledged ones", seen)
	}
}

// TestOnCommitSpanHook checks the tracing hook fires beside OnCommit
// with a start time bracketing the reported write/sync work and the
// same batch statistics.
func TestOnCommitSpanHook(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var commits []CommitStats
	var spans []CommitStats
	var starts []bool
	w, err := Open(Options{
		Dir:      dir,
		OnCommit: func(st CommitStats) { mu.Lock(); commits = append(commits, st); mu.Unlock() },
		OnCommitSpan: func(start time.Time, st CommitStats) {
			mu.Lock()
			spans = append(spans, st)
			starts = append(starts, !start.IsZero() && time.Since(start) >= st.WriteDuration)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte("span-hook")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(spans) == 0 || len(spans) != len(commits) {
		t.Fatalf("span hook fired %d times, OnCommit %d", len(spans), len(commits))
	}
	var recs int
	for i, st := range spans {
		if st != commits[i] {
			t.Fatalf("span stats %+v != commit stats %+v", st, commits[i])
		}
		if !starts[i] {
			t.Fatalf("span %d start does not bracket its write duration", i)
		}
		recs += st.Records
	}
	if recs != 10 {
		t.Fatalf("span hooks covered %d records, want 10", recs)
	}
}
