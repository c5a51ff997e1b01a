package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceDoc mirrors the Chrome trace JSON shape for decoding in tests.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string          `json:"ph"`
	Name string          `json:"name"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	TS   int64           `json:"ts"`
	Dur  int64           `json:"dur"`
	Args json.RawMessage `json:"args"`
}

// intArgs decodes an event's args as integer key/values.
func intArgs(t *testing.T, ev traceEvent) map[string]int64 {
	t.Helper()
	m := map[string]int64{}
	if err := json.Unmarshal(ev.Args, &m); err != nil {
		t.Fatalf("args %s: %v", ev.Args, err)
	}
	return m
}

func TestTraceWriterProducesValidChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(1, "channel 0")
	tw.ThreadName(1, 3, "bank 3")
	tw.Complete("ACT", 1, 3, 100, 4)
	tw.CompleteArgs("RD", 1, 3, 104, 6, []string{"row", "addr"}, []int64{17, 0x1234})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	if tw.Events() != 4 {
		t.Errorf("Events() = %d, want 4", tw.Events())
	}
	meta := doc.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "process_name" {
		t.Errorf("meta event = %+v", meta)
	}
	act := doc.TraceEvents[2]
	if act.Ph != "X" || act.Name != "ACT" || act.TS != 100 || act.Dur != 4 || act.PID != 1 || act.TID != 3 {
		t.Errorf("ACT event = %+v", act)
	}
	rd := intArgs(t, doc.TraceEvents[3])
	if rd["row"] != 17 || rd["addr"] != 0x1234 {
		t.Errorf("RD args = %+v", rd)
	}
}

func TestTraceWriterEmptyDocument(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("events = %+v, want none", doc.TraceEvents)
	}
}

func TestTraceWriterDoubleCloseIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Complete("RD", 1, 0, 0, 1)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("second Close wrote more bytes")
	}
}

func TestTraceEventSteadyStateDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	tw := NewTraceWriter(&buf)
	keys := []string{"row", "addr"}
	vals := []int64{1, 2}
	// Warm the scratch buffer, then demand allocation-free emission.
	tw.CompleteArgs("RD", 1, 2, 3, 4, keys, vals)
	allocs := testing.AllocsPerRun(500, func() {
		tw.Complete("ACT", 1, 2, 10, 4)
		tw.CompleteArgs("RD", 1, 2, 14, 6, keys, vals)
	})
	// bytes.Buffer growth inside bufio flushes can allocate; the event
	// construction itself must not. Allow a tiny amortized budget.
	if allocs > 0.5 {
		t.Errorf("event emission allocates %v per run, want ~0", allocs)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}
