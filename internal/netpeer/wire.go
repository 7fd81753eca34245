package netpeer

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"slices"

	"p2prank/internal/transport"
)

// wireFormat frames score chunks on a TCP connection. The default is
// gob (self-describing, zero setup); installing a transport.ChunkCodec
// switches to length-prefixed codec frames — the same compact encodings
// internal/codec provides for the simulator, now on a real socket. Both
// ends of a cluster must agree on the format.
type wireFormat interface {
	// newWriter wraps a connection for sending frames.
	newWriter(c net.Conn) frameWriter
	// newReader wraps a connection for receiving frames.
	newReader(c net.Conn) frameReader
}

type frameWriter interface {
	writeFrame(f frame) error
}

type frameReader interface {
	readFrame() (frame, error)
}

// gobWire is the default format.
type gobWire struct{}

func (gobWire) newWriter(c net.Conn) frameWriter { return &gobWriter{enc: gob.NewEncoder(c)} }
func (gobWire) newReader(c net.Conn) frameReader { return &gobReader{dec: gob.NewDecoder(c)} }

type gobWriter struct{ enc *gob.Encoder }

func (w *gobWriter) writeFrame(f frame) error { return w.enc.Encode(f) }

type gobReader struct{ dec *gob.Decoder }

func (r *gobReader) readFrame() (frame, error) {
	var f frame
	err := r.dec.Decode(&f)
	return f, err
}

// codecWire frames chunks as: uvarint chunk count, then per chunk a
// uvarint byte length followed by the codec encoding; then a uvarint
// ack count followed by per-ack uvarint group and round (the reliable
// layer's piggyback section — zero-count when reliability is off).
type codecWire struct {
	codec transport.ChunkCodec
}

func (cw codecWire) newWriter(c net.Conn) frameWriter {
	return &codecWriter{codec: cw.codec, w: bufio.NewWriter(c)}
}

func (cw codecWire) newReader(c net.Conn) frameReader {
	return &codecReader{codec: cw.codec, r: bufio.NewReader(c)}
}

type codecWriter struct {
	codec transport.ChunkCodec
	w     *bufio.Writer
	buf   []byte
	hdr   [binary.MaxVarintLen64]byte
}

func (w *codecWriter) writeFrame(f frame) error {
	n := binary.PutUvarint(w.hdr[:], uint64(len(f.Chunks)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		return err
	}
	for _, c := range f.Chunks {
		w.buf = w.codec.Encode(w.buf[:0], c)
		n := binary.PutUvarint(w.hdr[:], uint64(len(w.buf)))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
		if _, err := w.w.Write(w.buf); err != nil {
			return err
		}
	}
	n = binary.PutUvarint(w.hdr[:], uint64(len(f.Acks)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		return err
	}
	for _, a := range f.Acks {
		n := binary.PutUvarint(w.hdr[:], uint64(uint32(a.From)))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
		n = binary.PutUvarint(w.hdr[:], uint64(a.Round))
		if _, err := w.w.Write(w.hdr[:n]); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

type codecReader struct {
	codec transport.ChunkCodec
	r     *bufio.Reader
}

// maxFrameChunks, maxChunkBytes, and maxFrameAcks bound what one frame
// may advertise; a peer advertising more is broken or hostile. Within
// the bounds the reader commits memory only as chunks and bytes arrive:
// at most initChunks chunk slots and readStep body bytes up front.
const (
	maxFrameChunks = 1 << 20
	maxChunkBytes  = 1 << 26
	maxFrameAcks   = 1 << 20
	initChunks     = 64
	readStep       = 64 << 10
)

func (r *codecReader) readFrame() (frame, error) {
	count, err := binary.ReadUvarint(r.r)
	if err != nil {
		return frame{}, err
	}
	if count > maxFrameChunks {
		return frame{}, fmt.Errorf("netpeer: frame advertises %d chunks", count)
	}
	f := frame{Chunks: make([]transport.ScoreChunk, 0, min(count, initChunks))}
	for i := uint64(0); i < count; i++ {
		size, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		if size > maxChunkBytes {
			return frame{}, fmt.Errorf("netpeer: chunk advertises %d bytes", size)
		}
		buf, err := readBody(r.r, int(size))
		if err != nil {
			return frame{}, err
		}
		c, err := r.codec.Decode(buf)
		if err != nil {
			return frame{}, fmt.Errorf("netpeer: decoding chunk %d: %w", i, err)
		}
		f.Chunks = append(f.Chunks, c)
	}
	nacks, err := binary.ReadUvarint(r.r)
	if err != nil {
		return frame{}, err
	}
	if nacks > maxFrameAcks {
		return frame{}, fmt.Errorf("netpeer: frame advertises %d acks", nacks)
	}
	for i := uint64(0); i < nacks; i++ {
		from, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		round, err := binary.ReadUvarint(r.r)
		if err != nil {
			return frame{}, err
		}
		f.Acks = append(f.Acks, wireAck{From: int32(uint32(from)), Round: int64(round)})
	}
	return f, nil
}

// readBody reads size bytes from r, growing the buffer by at most
// readStep per read instead of sizing it from the advertised length.
func readBody(r io.Reader, size int) ([]byte, error) {
	var buf []byte
	for len(buf) < size {
		n := min(size-len(buf), readStep)
		buf = slices.Grow(buf, n)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+n]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+n]
	}
	return buf, nil
}
