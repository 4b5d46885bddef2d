package pubsub

// frameReader: the stream side of the codec. One instance wraps each
// connection; it sniffs every frame (JSON line or binary header, see
// codec.go), reuses one payload buffer across frames (pooled decode: a
// connection's frames never allocate fresh payload storage once the
// buffer has grown to the connection's frame sizes), and exposes a
// non-blocking tryRead so readers can coalesce frames that are
// already buffered without risking a stall on a partial frame. Once
// the transport has read the handshake it sets binaryOnly: from then
// on a JSON frame is a protocol error, not a message.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"probsum/internal/obs"
)

// frameReaderBufSize is the bufio window; frames larger than it still
// decode on the blocking path, but cannot be coalesced by tryRead.
const frameReaderBufSize = 64 << 10

// errJSONAfterHandshake is the protocol error of a JSON frame on a
// connection whose handshake is done: JSON carries hello and ack only.
var errJSONAfterHandshake = errors.New("pubsub: JSON frame after the handshake (JSON carries hello and ack only)")

type frameReader struct {
	r       *bufio.Reader
	payload []byte // reused binary-payload scratch
	// binaryOnly rejects JSON frames (set once the handshake is read).
	binaryOnly bool

	// hist/clock, when set (server-side readers), time the decode
	// stage: unmarshal only, never the blocking socket read. Both nil
	// or both set.
	hist  *obs.Histogram
	clock func() time.Time
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, frameReaderBufSize)}
}

// instrument attaches decode-stage timing; zero overhead when unset.
func (fr *frameReader) instrument(hist *obs.Histogram, clock func() time.Time) {
	fr.hist, fr.clock = hist, clock
}

// observeDecode records one decode duration starting at t0.
func (fr *frameReader) observeDecode(t0 time.Time) {
	fr.hist.Observe(fr.clock().Sub(t0))
}

// grow returns the reusable payload buffer resized to n bytes.
func (fr *frameReader) grow(n int) []byte {
	if cap(fr.payload) < n {
		fr.payload = make([]byte, n)
	}
	return fr.payload[:n]
}

// read blocks until one full frame is decoded (or the stream errors).
func (fr *frameReader) read(f *Frame) error {
	first, err := fr.r.Peek(1)
	if err != nil {
		return err
	}
	if first[0] == binMagic {
		var hdr [binHeader]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			return err
		}
		n, err := parseBinaryHeader(hdr[:])
		if err != nil {
			return err
		}
		payload := fr.grow(n)
		if _, err := io.ReadFull(fr.r, payload); err != nil {
			return err
		}
		var t0 time.Time
		if fr.hist != nil {
			t0 = fr.clock()
		}
		msg, err := decodeBinaryMessage(payload)
		if fr.hist != nil {
			fr.observeDecode(t0)
		}
		// One outsized frame must not pin its buffer for the life of
		// the connection — drop anything beyond the bufio window and
		// fall back to the steady-state size on the next frame.
		if cap(fr.payload) > frameReaderBufSize {
			fr.payload = nil
		}
		if err != nil {
			return err
		}
		*f = Frame{Msg: msg}
		return nil
	}
	if fr.binaryOnly {
		return errJSONAfterHandshake
	}
	line, err := fr.r.ReadBytes('\n')
	if err != nil {
		return err
	}
	var t0 time.Time
	if fr.hist != nil {
		t0 = fr.clock()
	}
	*f = Frame{}
	if err := json.Unmarshal(line, f); err != nil {
		return fmt.Errorf("pubsub: json frame: %w", err)
	}
	if fr.hist != nil {
		fr.observeDecode(t0)
	}
	return nil
}

// tryRead decodes the next frame ONLY if it is already fully buffered
// and reports whether it did. It never touches the underlying reader,
// so a reader goroutine can drain everything the kernel already
// delivered — coalescing a burst — and fall back to the blocking read
// when the stream runs dry mid-frame.
func (fr *frameReader) tryRead(f *Frame) (bool, error) {
	n := fr.r.Buffered()
	if n == 0 {
		return false, nil
	}
	buf, err := fr.r.Peek(n)
	if err != nil {
		return false, err
	}
	if buf[0] == binMagic {
		if n < binHeader {
			return false, nil
		}
		plen, err := parseBinaryHeader(buf)
		if err != nil {
			return false, err
		}
		if n < binHeader+plen {
			return false, nil
		}
		var t0 time.Time
		if fr.hist != nil {
			t0 = fr.clock()
		}
		msg, err := decodeBinaryMessage(buf[binHeader : binHeader+plen])
		if fr.hist != nil {
			fr.observeDecode(t0)
		}
		if err != nil {
			return false, err
		}
		fr.r.Discard(binHeader + plen)
		*f = Frame{Msg: msg}
		return true, nil
	}
	if fr.binaryOnly {
		return false, errJSONAfterHandshake
	}
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		// No full JSON line buffered (possibly a frame larger than the
		// window); let the blocking path handle it.
		return false, nil
	}
	var t0 time.Time
	if fr.hist != nil {
		t0 = fr.clock()
	}
	*f = Frame{}
	if err := json.Unmarshal(buf[:i+1], f); err != nil {
		return false, fmt.Errorf("pubsub: json frame: %w", err)
	}
	if fr.hist != nil {
		fr.observeDecode(t0)
	}
	fr.r.Discard(i + 1)
	return true, nil
}
