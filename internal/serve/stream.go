package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// maxStreamMessage bounds one event's payload (full snapshots of a
// 100k-node run stay well under this).
const maxStreamMessage = 64 << 20

// StreamReader reads the hub's event stream — what `kkt ws` and the tests
// subscribe with. It takes the part of the server-sent-events grammar the
// hub emits: an event is its "data:" lines (joined by newlines) up to a
// blank line; ":" comment lines and other fields are skipped.
type StreamReader struct {
	sc    *bufio.Scanner
	limit int
}

// NewStreamReader reads events from r, typically an HTTP response body.
func NewStreamReader(r io.Reader) *StreamReader {
	return newStreamReader(r, maxStreamMessage)
}

func newStreamReader(r io.Reader, limit int) *StreamReader {
	sc := bufio.NewScanner(r)
	// Room for a full-size data line plus its "data: " prefix and CRLF.
	sc.Buffer(nil, limit+len("data: \r\n"))
	return &StreamReader{sc: sc, limit: limit}
}

// Next returns the next event's payload. It returns io.EOF when the stream
// ends between events, which is how a server close looks to a subscriber,
// and io.ErrUnexpectedEOF when it ends inside one.
func (s *StreamReader) Next() ([]byte, error) {
	var msg []byte
	inEvent := false
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			if inEvent {
				return msg, nil
			}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		if string(field) != "data" {
			continue
		}
		value = bytes.TrimPrefix(value, []byte(" "))
		if inEvent {
			msg = append(msg, '\n')
		}
		if len(msg)+len(value) > s.limit {
			return nil, fmt.Errorf("serve: stream message exceeds %d bytes", s.limit)
		}
		msg = append(msg, value...)
		inEvent = true
	}
	err := s.sc.Err()
	switch {
	case errors.Is(err, bufio.ErrTooLong):
		return nil, fmt.Errorf("serve: stream line exceeds %d bytes", s.limit)
	case err != nil && !errors.Is(err, io.ErrUnexpectedEOF):
		return nil, err
	case inEvent:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, io.EOF
}
