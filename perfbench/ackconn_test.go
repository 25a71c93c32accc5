package main

import (
	"testing"
	"time"

	"repro/internal/ingest"
)

// TestAckParserSplitReads feeds a handshake response and a mix of
// frames one byte at a time and in one piece, and checks every Ack is
// reported once, in order, and nothing else is.
func TestAckParserSplitReads(t *testing.T) {
	var stream []byte
	stream = append(stream, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: spatial-ingest/1\r\n\r\n"...)
	stream = ingest.AppendHelloAck(stream, ingest.HelloAck{Watermark: 0, WindowBatches: 32})
	stream = ingest.AppendAck(stream, 1)
	stream = ingest.AppendAck(stream, 300) // multi-byte uvarint
	stream = ingest.AppendError(stream, ingest.CodeOverloaded, "shed")
	stream = ingest.AppendFrame(stream, ingest.FrameAck, nil) // malformed: empty body
	stream = ingest.AppendAck(stream, 301)

	for _, chunk := range []int{1, 3, len(stream)} {
		var p ackParser
		var got []uint64
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			p.feed(stream[off:end], time.Time{}, func(seq uint64, _ time.Time) { got = append(got, seq) })
		}
		want := []uint64{1, 300, 301}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: acks %v, want %v", chunk, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: acks %v, want %v", chunk, got, want)
			}
		}
	}
}
