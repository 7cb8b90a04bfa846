package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is one framed protocol connection, and the only code that knows
// the two wire formats. Every role — the serving loop, the replication
// stream and its ack reader, Client, cluster.Follower, the router — reads
// and writes whole frames through it and never tests the format itself.
//
// A fresh Conn speaks line-delimited JSON: one document per line. After
// a hello exchange acks FormatBinary, both peers call SetFormat and every
// later frame is a little-endian uint32 payload length, a little-endian
// uint32 CRC32C (Castagnoli) of the payload, then the payload bytes — the
// layout the WAL uses on disk. The payload is the identical JSON document
// either way (the differential suite pins this): binary framing buys
// length-prefixed reads, corruption detection, and payloads free to
// contain newlines.
//
// ReadFrame must be called from one goroutine at a time; WriteFrame is
// safe for concurrent use, so a response and a server-initiated push can
// never interleave within a frame. The embedded net.Conn carries
// deadlines and Close.
type Conn struct {
	net.Conn
	br   *bufio.Reader
	rbuf []byte // ReadFrame's payload buffer, reused across frames

	// binary is the negotiated format. It flips only between a hello ack
	// and the next frame, when no push can be in flight (hello is refused
	// on connections with subscriptions).
	binary atomic.Bool

	wmu  sync.Mutex
	wbuf []byte // WriteFrame's frame buffer, reused across frames
}

// NewConn wraps a freshly dialed or accepted connection, in line format.
func NewConn(nc net.Conn) *Conn {
	return &Conn{Conn: nc, br: bufio.NewReader(nc)}
}

// SetFormat switches the framing to an acked hello's format. The hello
// and its ack always travel in the old format; bytes the reader already
// buffered are consumed in order under the new one.
func (c *Conn) SetFormat(format string) {
	c.binary.Store(format == FormatBinary)
}

const binFrameHeaderLen = 8

var binCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors, distinguished so the serving loop can answer with a
// typed protocol code before closing.
var (
	errFrameTooLong = errors.New("daemon: frame exceeds size limit")
	errFrameCRC     = errors.New("daemon: frame CRC mismatch")
)

// WriteFrame writes payload as one frame in the connection's format, in
// a single Write. A positive timeout sets the write deadline first, under
// the same lock that serializes the writers.
func (c *Conn) WriteFrame(payload []byte, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame := c.wbuf[:0]
	if c.binary.Load() {
		if len(payload) > MaxLineBytes {
			return fmt.Errorf("%w (%d > %d bytes)", errFrameTooLong, len(payload), MaxLineBytes)
		}
		var hdr [binFrameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, binCastagnoli))
		frame = append(append(frame, hdr[:]...), payload...)
	} else {
		frame = append(append(frame, payload...), '\n')
	}
	if cap(frame) <= MaxLineBytes+binFrameHeaderLen {
		c.wbuf = frame[:0] // never cache pathological growth
	}
	if timeout > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := c.Conn.Write(frame)
	return err
}

// ReadFrame reads one frame and returns its payload, valid until the
// next call. An over-long line or a length field over MaxLineBytes is
// errFrameTooLong — without reading the body: a wild length must not
// allocate or consume GiBs — and a checksum failure is errFrameCRC.
func (c *Conn) ReadFrame() ([]byte, error) {
	if c.binary.Load() {
		return c.readBinFrame()
	}
	return c.readLine()
}

func (c *Conn) readBinFrame() ([]byte, error) {
	var hdr [binFrameHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxLineBytes {
		return nil, fmt.Errorf("%w (%d > %d bytes)", errFrameTooLong, n, MaxLineBytes)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, binCastagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errFrameCRC
	}
	return payload, nil
}

// readLine reads one newline-terminated line, stripping the terminator
// (and a preceding \r). It mirrors bufio.Scanner's contract — a final
// unterminated line before EOF is returned as a line; a line over
// MaxLineBytes is errFrameTooLong — but on the shared bufio.Reader, so
// the switch to binary framing loses no buffered bytes.
func (c *Conn) readLine() ([]byte, error) {
	line := c.rbuf[:0]
	for {
		chunk, err := c.br.ReadSlice('\n')
		line = append(line, chunk...)
		switch {
		case err == nil:
			c.rbuf = line
			if len(line) > MaxLineBytes+1 { // the line includes its '\n'
				return nil, errFrameTooLong
			}
			return trimLine(line), nil
		case errors.Is(err, bufio.ErrBufferFull):
			// Error as soon as the limit's worth of unterminated bytes is
			// buffered, like bufio.Scanner — never block waiting to grow a
			// line that is already over it.
			if len(line) >= MaxLineBytes {
				return nil, errFrameTooLong
			}
		case errors.Is(err, io.EOF) && len(line) > 0:
			c.rbuf = line
			if len(line) > MaxLineBytes {
				return nil, errFrameTooLong
			}
			return trimLine(line), nil
		default:
			return nil, err
		}
	}
}

func trimLine(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'})
}
