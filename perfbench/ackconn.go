package main

import (
	"encoding/binary"
	"net"
	"time"

	"repro/internal/ingest"
)

// ackConn wraps a spatial-ingest/1 client connection and timestamps
// every Ack frame as its bytes arrive, so a batch's Send-to-ack latency
// is measured without changing the client. It is installed through
// ingestclient.Options.Dial; a reconnect gets a fresh wrapper.
//
// The inbound byte stream is the HTTP 101 response, then frames of
// `type byte | uvarint bodyLen | body`. The parser is a byte-at-a-time
// state machine, so frames may split across reads anywhere.
type ackConn struct {
	net.Conn
	onAck func(seq uint64, at time.Time)
	p     ackParser
}

// Read passes bytes through and feeds them to the ack parser.
func (c *ackConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.feed(b[:n], time.Now(), c.onAck)
	}
	return n, err
}

// ackParser states.
const (
	psHeader = iota // inside the HTTP response head
	psType          // expecting a frame type byte
	psLen           // inside the uvarint body length
	psBody          // inside the body
)

// ackParser tracks the frame boundaries of one connection's inbound
// stream and reports each Ack frame's cumulative sequence number.
type ackParser struct {
	state int
	tail  uint32 // last four header bytes, to find "\r\n\r\n"
	ftype ingest.FrameType
	left  uint64 // body bytes still to come
	shift uint
	body  []byte // collected body of an Ack frame
}

// feed consumes bytes received at time at.
func (p *ackParser) feed(b []byte, at time.Time, onAck func(uint64, time.Time)) {
	for _, c := range b {
		switch p.state {
		case psHeader:
			p.tail = p.tail<<8 | uint32(c)
			if p.tail == 0x0d0a0d0a {
				p.state = psType
			}
		case psType:
			p.ftype, p.left, p.shift, p.body = ingest.FrameType(c), 0, 0, p.body[:0]
			p.state = psLen
		case psLen:
			p.left |= uint64(c&0x7f) << p.shift
			p.shift += 7
			if c < 0x80 {
				p.state = psBody
				if p.left == 0 {
					p.frameDone(at, onAck)
				}
			}
		case psBody:
			if p.ftype == ingest.FrameAck {
				p.body = append(p.body, c)
			}
			p.left--
			if p.left == 0 {
				p.frameDone(at, onAck)
			}
		}
	}
}

// frameDone finishes one frame, reporting it when it is an Ack.
func (p *ackParser) frameDone(at time.Time, onAck func(uint64, time.Time)) {
	p.state = psType
	if p.ftype != ingest.FrameAck {
		return
	}
	if seq, n := binary.Uvarint(p.body); n > 0 && n == len(p.body) {
		onAck(seq, at)
	}
}
