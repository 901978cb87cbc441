package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ParsedTrace is a Chrome trace dump decoded back into spans — the
// inverse of WriteChromeTrace, up to the information the format keeps
// (track names survive via thread_name metadata; trace IDs and
// sequence numbers via the span args written by buildChromeTrace).
type ParsedTrace struct {
	// Spans holds every complete ("X") event, in dump order.
	Spans []Span
	// ProcessName is the first process_name metadata record (the
	// tracer's SetProcess name), "" when the dump carries none.
	ProcessName string
}

// ParseChromeTrace decodes a Chrome trace-event dump produced by
// WriteChromeTrace (or a server's /trace) back into spans. menos-fleetd
// merges the fleet's traces through it: each server's /trace, fetched
// when the merged trace is asked for, parses here and renders beside
// the others through Tracer and WriteMergedChromeTrace.
//
// Events from all pids in the dump are returned; a server's /trace
// carries exactly one.
func ParseChromeTrace(r io.Reader) (ParsedTrace, error) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			PID  int             `json:"pid"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return ParsedTrace{}, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	var out ParsedTrace
	type thread struct{ pid, tid int }
	tracks := make(map[thread]string)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			var meta struct {
				Name string `json:"name"`
			}
			if len(ev.Args) > 0 {
				_ = json.Unmarshal(ev.Args, &meta)
			}
			switch ev.Name {
			case "process_name":
				if out.ProcessName == "" {
					out.ProcessName = meta.Name
				}
			case "thread_name":
				tracks[thread{ev.PID, ev.TID}] = meta.Name
			}
		case "X":
			s := Span{
				Track: tracks[thread{ev.PID, ev.TID}],
				Name:  ev.Name,
				Cat:   ev.Cat,
				Start: time.Duration(ev.TS * float64(time.Microsecond)),
				Dur:   time.Duration(ev.Dur * float64(time.Microsecond)),
			}
			if len(ev.Args) > 0 {
				var args struct {
					Seq     uint64 `json:"seq"`
					TraceID string `json:"trace_id"`
				}
				if json.Unmarshal(ev.Args, &args) == nil {
					s.Seq = args.Seq
					if args.TraceID != "" {
						if id, err := strconv.ParseUint(args.TraceID, 16, 64); err == nil {
							s.TraceID = id
						}
					}
				}
			}
			if s.Track == "" {
				// thread_name metadata may follow its spans in foreign
				// dumps; fall back to a stable synthetic track.
				s.Track = "tid-" + strconv.Itoa(ev.TID)
			}
			out.Spans = append(out.Spans, s)
		}
	}
	return out, nil
}

// Tracer returns the parsed spans, each keeping its seq, as one process
// named ProcessName under pid, for WriteMergedChromeTrace to render
// beside other processes. The tracer has no clock: it is for rendering,
// not for recording.
func (p ParsedTrace) Tracer(pid int) *Tracer {
	return &Tracer{spans: p.Spans, pid: pid, pname: p.ProcessName}
}
