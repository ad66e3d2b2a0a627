package trace

import "io"

// An EventSource yields trace events one at a time. Next returns io.EOF
// after the final event. *Decoder is the canonical streaming source; a
// SliceSource adapts an in-memory event slice.
type EventSource interface {
	Next() (Event, error)
}

// SliceSource is an EventSource over an in-memory event slice.
type SliceSource struct {
	Events []Event
	pos    int
}

// Next implements EventSource.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.Events) {
		return Event{}, io.EOF
	}
	ev := s.Events[s.pos]
	s.pos++
	return ev, nil
}
