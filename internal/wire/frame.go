// Binary framing for the wire protocol (see docs/PROTOCOL.md).
//
// A binary-protocol connection opens with a 5-byte client hello — the 4-byte
// magic followed by the highest protocol version the client speaks — and a
// 1-byte server reply naming the accepted version. Everything after the
// handshake is frames:
//
//	offset  size  field
//	0       4     payload length, uint32 little-endian (0..MaxFrameSize)
//	4       1     op (request kind on the way in, opResult on the way out)
//	5       1     flags (reserved, must be 0)
//	6       4     request id, uint32 little-endian
//	10      n     payload (codec.go encoding of a request or Response)
//
// The magic's first byte is 0x80, which can never begin a gob stream: gob
// length prefixes are either a single byte <= 0x7F or a negative byte count
// in 0xF8..0xFF. That makes protocol sniffing on the server unambiguous —
// the server peeks 4 bytes and serves gob to clients that predate the
// binary protocol, so old clients keep connecting unchanged.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// protoMagic opens a binary-protocol connection. 0x80 is an invalid first
// byte for a gob stream (see package comment), so sniffing cannot
// misclassify a legacy client.
var protoMagic = [4]byte{0x80, 'R', 'P', 'L'}

// protoVersion1 is the current binary protocol version. Version 0 is
// reserved to mean "gob" and never appears in a hello.
const protoVersion1 = 1

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 10

// opResult is the op byte of every server→client frame; request frames use
// their request kind (reqAuth..reqCloseStmt) as the op byte.
const opResult = 0x40

// MaxFrameSize bounds one frame's payload, enforced on BOTH ends before any
// allocation: a corrupt or hostile length prefix surfaces as a typed
// ErrFrameTooLarge instead of a multi-gigabyte allocation. 8 MiB is far
// above any legitimate result batch this engine produces.
const MaxFrameSize = 8 << 20

// ErrFrameTooLarge reports a frame whose declared payload length exceeds
// MaxFrameSize. The connection is unusable afterwards (framing is lost).
var ErrFrameTooLarge = errors.New("wire: frame exceeds max frame size")

// ErrFrameCorrupt reports a frame payload that does not decode: truncated
// varints, string lengths overrunning the payload, unknown value kinds.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

// ErrProtocolDesync reports a response whose request id is not the oldest
// one in flight (responses arrive in request order) — the framing survived
// but the id stream did not. Soak tests assert this never happens.
var ErrProtocolDesync = errors.New("wire: protocol desync")

// errHandshakeRejected means the server did not accept the binary hello —
// it predates the binary protocol (its gob decoder choked on the magic and
// hung up) or speaks no common version. ProtocolAuto clients redial in gob.
var errHandshakeRejected = errors.New("wire: binary handshake rejected")

// appendFrame appends one frame to dst: the header, then whatever encode
// (nil for an empty payload) appends as the payload. It is the one frame
// encoder of both ends. A payload over MaxFrameSize leaves dst as it was and
// returns ErrFrameTooLarge, so the stream stays in sync.
func appendFrame(dst []byte, op, flags byte, id uint32, encode func([]byte) []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	if encode != nil {
		dst = encode(dst)
	}
	payload := len(dst) - start - frameHeaderLen
	if payload > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: %d byte payload (max %d)", ErrFrameTooLarge, payload, MaxFrameSize)
	}
	h := dst[start:]
	binary.LittleEndian.PutUint32(h[0:4], uint32(payload))
	h[4] = op
	h[5] = flags
	binary.LittleEndian.PutUint32(h[6:10], id)
	return dst, nil
}

// recycle empties a written frame buffer for reuse, dropping it instead
// when a rare huge frame grew it past maxRetainedBuf.
func recycle(b []byte) []byte {
	if cap(b) > maxRetainedBuf {
		return nil
	}
	return b[:0]
}

// frameWriter appends frames to a reused buffer; flush writes everything
// appended since the last flush in one Write, so a burst of frames shares
// one syscall.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: w}
}

func (fw *frameWriter) writeFrame(op, flags byte, id uint32, encode func([]byte) []byte) error {
	var err error
	fw.buf, err = appendFrame(fw.buf, op, flags, id, encode)
	return err
}

func (fw *frameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = recycle(fw.buf)
	return err
}

// frameReader reads frames, reusing one payload buffer across calls: the
// returned payload aliases that buffer and is valid only until the next
// readFrame — decoders copy what they keep (strings), so no payload bytes
// escape. torn reports whether the last failed readFrame consumed part of
// a frame (framing is then lost); a failure with torn false happened on a
// frame boundary.
type frameReader struct {
	br   *bufio.Reader
	hdr  [frameHeaderLen]byte
	buf  []byte
	torn bool
}

func newFrameReader(r io.Reader) *frameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &frameReader{br: br}
}

// readFrame reads one frame. The length prefix is validated against
// MaxFrameSize before the payload buffer is (re)sized, so a corrupt prefix
// cannot trigger a huge allocation.
func (fr *frameReader) readFrame() (op, flags byte, id uint32, payload []byte, err error) {
	var got int
	if got, err = io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		fr.torn = got > 0
		return
	}
	fr.torn = true
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > MaxFrameSize {
		err = fmt.Errorf("%w: %d byte payload (max %d)", ErrFrameTooLarge, n, MaxFrameSize)
		return
	}
	op = fr.hdr[4]
	flags = fr.hdr[5]
	id = binary.LittleEndian.Uint32(fr.hdr[6:10])
	if int(n) > cap(fr.buf) {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err = io.ReadFull(fr.br, payload); err == nil {
		fr.torn = false
	}
	return
}

// sniffBinaryHello peeks br for the binary-protocol magic without consuming
// anything on a miss, so the gob path can decode from the same reader.
func sniffBinaryHello(br *bufio.Reader) bool {
	peek, err := br.Peek(len(protoMagic))
	return err == nil && bytes.Equal(peek, protoMagic[:])
}

// acceptBinaryHello consumes the client hello from br and answers on conn
// with the accepted version. Call only after sniffBinaryHello returned true.
func acceptBinaryHello(br *bufio.Reader, conn net.Conn) error {
	if _, err := br.Discard(len(protoMagic)); err != nil {
		return err
	}
	clientMax, err := br.ReadByte()
	if err != nil {
		return err
	}
	if clientMax < protoVersion1 {
		// No common version: say so with an explicit zero so the client
		// fails fast instead of timing out, then hang up.
		_, _ = conn.Write([]byte{0})
		return fmt.Errorf("%w: client speaks only version %d", errHandshakeRejected, clientMax)
	}
	_, err = conn.Write([]byte{protoVersion1})
	return err
}

// clientHello performs the client half of the handshake within deadline:
// write magic+version, read the server's accepted version. Any failure —
// including the connection reset an old gob server produces when its
// decoder hits the magic — comes back wrapping errHandshakeRejected so
// ProtocolAuto can fall back to gob.
func clientHello(conn net.Conn, deadline time.Time) error {
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	hello := append(append([]byte{}, protoMagic[:]...), protoVersion1)
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeRejected, err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("%w: %v", errHandshakeRejected, err)
	}
	if ack[0] != protoVersion1 {
		return fmt.Errorf("%w: server accepted version %d", errHandshakeRejected, ack[0])
	}
	return conn.SetDeadline(time.Time{})
}
