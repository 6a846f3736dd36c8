// Package wire gives the dlb master/slave protocol a real network
// encoding: length-prefixed frames carrying the same message types the
// simulated runtime exchanges (status, instruction, work movement, slices,
// scatter and gather). Two codecs share one connection: a hand-rolled
// little-endian binary layout (codec.go) for the balancing conversation
// and the float-bearing data plane, and gob for the rare self-describing
// control frames. Each frame's length prefix carries a codec bit, so the
// two interleave freely. The group envelope (GroupStatusMsg) has no wire
// encoding: only in-process runs (Run, RunReal) relay through group
// leaders, because a grouped run refuses fault tolerance and every
// transport run is fault-tolerant.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/dlb"
)

// Envelope frames one protocol message.
type Envelope struct {
	Tag     string
	From    int
	Payload interface{}
}

// DefaultMaxFrame bounds a frame to guard against corrupt length prefixes
// (and, on a real network, against a hostile or confused peer allocating
// unbounded memory on the receiver). Override per connection with
// Conn.SetMaxFrame. It must stay below binaryFrameBit: the prefix's top
// bit marks the frame's codec, not its size.
const DefaultMaxFrame = 1 << 30

// frameHdr is the size of the length prefix. Outbound frames are built with
// that much room at the front, so prefix and payload leave in one Write —
// on a TCP_NODELAY socket, one segment and one wake-up of the peer's reader.
const frameHdr = 4

// readAhead sizes the buffer frames are read through: a ghost row of a few
// KB arrives, prefix and payload, in one read of the socket.
const readAhead = 16 << 10

// binaryFrameBit marks a frame as binary-codec in the length prefix's top
// bit. Gob frames (and every frame an old peer emits) have it clear.
const binaryFrameBit = 1 << 31

// FrameLimitError reports a frame whose declared or actual size exceeds the
// connection's limit. It distinguishes a policy rejection from transport
// corruption so callers can surface it precisely.
type FrameLimitError struct {
	Size  int // declared (inbound) or attempted (outbound) frame size
	Limit int
}

func (e *FrameLimitError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, e.Limit)
}

func init() {
	gob.Register(dlb.StatusMsg{})
	gob.Register(dlb.InstrMsg{})
	gob.Register(dlb.WorkMsg{})
	gob.Register(dlb.SliceMsg{})
	gob.Register(dlb.InitMsg{})
	gob.Register(dlb.GatherMsg{})
	gob.Register(core.Move{})
	// Fault-tolerance protocol (heartbeat/eviction/checkpoint/recovery/join).
	gob.Register(dlb.HeartbeatMsg{})
	gob.Register(dlb.EvictMsg{})
	gob.Register(dlb.CheckpointRequestMsg{})
	gob.Register(dlb.CheckpointMsg{})
	gob.Register(dlb.JoinMsg{})
	gob.Register(dlb.AdoptMsg{})
	gob.Register(dlb.FinAckMsg{})
	// Combine all-reduce deltas travel as bare slices.
	gob.Register([]float64(nil))
	// Connection-lifecycle control frames (the netrun transport).
	gob.Register(StartMsg{})
	gob.Register(HelloMsg{})
	gob.Register(RosterMsg{})
	gob.Register(PeerHelloMsg{})
	gob.Register(RejectMsg{})
}

// Conn sends and receives envelopes over a byte stream with 4-byte
// big-endian length prefixes (top bit: codec flag).
type Conn struct {
	rw     io.ReadWriter
	fr     *framed
	enc    *gob.Encoder
	dec    *gob.Decoder
	binary bool // codec.go's messages go out on the binary codec
}

// NewConn wraps a stream. Gob streams are stateful, so a Conn must be used
// by a single sender and a single receiver (one per direction is fine).
func NewConn(rw io.ReadWriter) *Conn {
	fr := &framed{rw: rw, br: bufio.NewReaderSize(rw, readAhead), limit: DefaultMaxFrame}
	return &Conn{rw: rw, fr: fr, enc: gob.NewEncoder(fr), dec: gob.NewDecoder(fr)}
}

// SetMaxFrame bounds the size of a single frame in both directions.
// Oversized frames fail with a *FrameLimitError. Non-positive limits
// restore the default.
func (c *Conn) SetMaxFrame(n int) {
	if n <= 0 || n > DefaultMaxFrame {
		n = DefaultMaxFrame
	}
	c.fr.limit = n
}

// SetBinary selects whether the messages codec.go covers are sent on the
// binary codec (true: every netrun connection) or on gob (false: the
// baseline the codec differential tests and the benchmark module's wire.*
// probes measure against). Receiving binary needs no grant — any Conn decodes both
// codecs. Send and SetBinary must come from the same goroutine (the
// writer), like the gob encoder itself.
func (c *Conn) SetBinary(on bool) { c.binary = on }

// Send writes one envelope: on a SetBinary(true) connection the payloads
// codec.go covers go out as one binary frame from a pooled scratch buffer;
// the other control frames are gob.
func (c *Conn) Send(e Envelope) error {
	if c.binary {
		bp := encBufPool.Get().(*[]byte)
		b, err := appendBinaryEnvelope((*bp)[:frameHdr], e)
		if err == nil {
			*bp = b[:0]
			err = c.fr.writeFrame(b, true)
			encBufPool.Put(bp)
			return err
		}
		encBufPool.Put(bp)
		if err != errNoBinary {
			return err
		}
	}
	return c.enc.Encode(e)
}

// Recv reads one envelope of either codec.
func (c *Conn) Recv() (Envelope, error) {
	for len(c.fr.buf) == 0 {
		payload, bin, err := c.fr.readFrame()
		if err != nil {
			return Envelope{}, err
		}
		if bin {
			return decodeBinaryEnvelope(payload)
		}
		c.fr.buf = payload
	}
	// A gob frame (or the remainder of one): the decoder pulls the rest of
	// the value's frames through framed.Read as it needs them.
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// Release returns the connection's grown frame buffer to the pool. Call it
// once, when the connection is torn down (netrun's router does); the Conn
// allocates a fresh buffer if it is used again.
func (c *Conn) Release() { c.fr.release() }

// frameBufPool recycles inbound frame buffers across connections, so a
// transport that churns links (joiners, reconnects) does not re-grow a
// fresh buffer per connection.
var frameBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// framed adapts a stream to explicit length-prefixed frames so a reader
// can never over-read past a message boundary, and so each frame can carry
// its codec in the prefix's top bit. Gob rides on Read/Write (one gob
// message segment per frame); binary envelopes use readFrame/writeFrame
// directly. The inbound buffer is reused across frames — a frame is always
// fully consumed before the next one is read — so steady-state receiving
// allocates nothing. Every read of the stream goes through br, so its
// read-ahead takes bytes from nobody: they are the next frames of this
// same connection.
type framed struct {
	rw    io.ReadWriter
	br    *bufio.Reader
	limit int
	buf   []byte  // unread remainder of the current inbound gob frame
	store *[]byte // pooled backing for inbound frames, grown once
	wbuf  []byte  // outbound gob segment behind its prefix, reused
}

// readFrame reads one whole frame, returning its payload and codec. The
// payload aliases the reused frame buffer: it is valid only until the next
// readFrame (decoders must copy out what outlives the frame — the binary
// decoder's arena does).
func (f *framed) readFrame() ([]byte, bool, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(f.br, hdr[:]); err != nil {
		return nil, false, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	bin := word&binaryFrameBit != 0
	n := int(word &^ binaryFrameBit)
	if n > f.limit {
		return nil, false, &FrameLimitError{Size: n, Limit: f.limit}
	}
	if f.store == nil {
		f.store = frameBufPool.Get().(*[]byte)
	}
	if cap(*f.store) < n {
		*f.store = make([]byte, 0, n)
	}
	payload := (*f.store)[:n]
	if _, err := io.ReadFull(f.br, payload); err != nil {
		return nil, false, err
	}
	return payload, bin, nil
}

func (f *framed) release() {
	if f.store != nil {
		frameBufPool.Put(f.store)
		f.store = nil
		f.buf = nil
	}
}

// writeFrame sends one frame — frame[frameHdr:], behind the room its
// caller left for the prefix — in a single Write.
func (f *framed) writeFrame(frame []byte, bin bool) error {
	n := len(frame) - frameHdr
	if n > f.limit {
		return &FrameLimitError{Size: n, Limit: f.limit}
	}
	word := uint32(n)
	if bin {
		word |= binaryFrameBit
	}
	binary.BigEndian.PutUint32(frame, word)
	_, err := f.rw.Write(frame)
	return err
}

// Write frames one gob stream segment (the gob encoder writes each Encode
// through here, possibly as several segments).
func (f *framed) Write(p []byte) (int, error) {
	if len(p) > f.limit { // refused before it is copied, not after
		return 0, &FrameLimitError{Size: len(p), Limit: f.limit}
	}
	f.wbuf = append(append(f.wbuf[:0], make([]byte, frameHdr)...), p...)
	if err := f.writeFrame(f.wbuf, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read serves the gob decoder. A binary frame can never legitimately start
// inside a gob value — writers emit whole envelopes — so hitting one here
// is stream corruption.
func (f *framed) Read(p []byte) (int, error) {
	for len(f.buf) == 0 {
		payload, bin, err := f.readFrame()
		if err != nil {
			return 0, err
		}
		if bin {
			return 0, corruptErr("binary frame inside a gob value")
		}
		f.buf = payload
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

// ReadByte lets the gob decoder use framed directly instead of wrapping it
// in a bufio.Reader, whose readahead could steal bytes of a following
// frame.
func (f *framed) ReadByte() (byte, error) {
	for len(f.buf) == 0 {
		payload, bin, err := f.readFrame()
		if err != nil {
			return 0, err
		}
		if bin {
			return 0, corruptErr("binary frame inside a gob value")
		}
		f.buf = payload
	}
	b := f.buf[0]
	f.buf = f.buf[1:]
	return b, nil
}
