package trace

import "io"

// ReadAll drains src into a slice: the whole-trace materialization the
// tests compare decoders with.
func ReadAll(src EventSource) ([]Event, error) {
	var events []Event
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}

// Append records one event: how the tests build small traces by hand.
func (t *Trace) Append(id int32, addr int64) {
	t.Events = append(t.Events, Event{ID: id, Addr: addr})
}
