package metrics

import (
	"bufio"
	"io"
	"strconv"
)

// TraceWriter streams Chrome trace-event JSON (the chrome://tracing /
// Perfetto "JSON Array Format"): one "X" (complete) event per SDRAM
// command or request lifetime, with process rows for channels and
// threads and thread rows for banks. The simulated cycle is written as
// the microsecond timestamp, so one display microsecond is one memory
// cycle.
//
// Events are appended to an internal byte buffer with strconv.Append*
// (no allocation per event once the buffer has grown) and flushed
// through a bufio.Writer, so tracing a multi-million-cycle run streams
// instead of accumulating.
type TraceWriter struct {
	w      *bufio.Writer
	buf    []byte
	events int64
	err    error
	closed bool
}

// NewTraceWriter starts a trace document on w. The caller must Close
// the writer to produce valid JSON.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
	_, t.err = t.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return t
}

// Events returns the number of events emitted so far.
func (t *TraceWriter) Events() int64 { return t.events }

// Err returns the first write error, if any.
func (t *TraceWriter) Err() error { return t.err }

// sep writes the inter-event comma.
func (t *TraceWriter) sep() {
	if t.events > 0 {
		t.buf = append(t.buf, ',', '\n')
	}
	t.events++
}

// flush hands the scratch buffer to the underlying writer.
func (t *TraceWriter) flush() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// appendQuoted appends a JSON string. Metric and event names are
// simulator-chosen identifiers (no quotes or control characters), so a
// plain quote wrap suffices.
func (t *TraceWriter) appendQuoted(s string) {
	t.buf = append(t.buf, '"')
	t.buf = append(t.buf, s...)
	t.buf = append(t.buf, '"')
}

func (t *TraceWriter) appendKV(key string, v int64) {
	t.appendQuoted(key)
	t.buf = append(t.buf, ':')
	t.buf = strconv.AppendInt(t.buf, v, 10)
}

// head begins an event with the common fields.
func (t *TraceWriter) head(ph byte, name string, pid, tid int, ts int64) {
	t.sep()
	t.buf = append(t.buf, `{"ph":"`...)
	t.buf = append(t.buf, ph)
	t.buf = append(t.buf, `","name":`...)
	t.appendQuoted(name)
	t.buf = append(t.buf, ',')
	t.appendKV("pid", int64(pid))
	t.buf = append(t.buf, ',')
	t.appendKV("tid", int64(tid))
	t.buf = append(t.buf, ',')
	t.appendKV("ts", ts)
}

// Complete emits a complete ("X") event spanning [start, start+dur).
func (t *TraceWriter) Complete(name string, pid, tid int, start, dur int64) {
	t.head('X', name, pid, tid, start)
	t.buf = append(t.buf, ',')
	t.appendKV("dur", dur)
	t.buf = append(t.buf, '}')
	t.flush()
}

// CompleteArgs emits a complete event with integer args (addresses,
// rows, latencies). Keys and values alternate in kv.
func (t *TraceWriter) CompleteArgs(name string, pid, tid int, start, dur int64, keys []string, vals []int64) {
	t.head('X', name, pid, tid, start)
	t.buf = append(t.buf, ',')
	t.appendKV("dur", dur)
	t.buf = append(t.buf, `,"args":{`...)
	for i, k := range keys {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.appendKV(k, vals[i])
	}
	t.buf = append(t.buf, '}', '}')
	t.flush()
}

// meta emits a metadata event naming a process or thread row.
func (t *TraceWriter) meta(kind string, pid, tid int, name string) {
	t.sep()
	t.buf = append(t.buf, `{"ph":"M","name":`...)
	t.appendQuoted(kind)
	t.buf = append(t.buf, ',')
	t.appendKV("pid", int64(pid))
	if tid >= 0 {
		t.buf = append(t.buf, ',')
		t.appendKV("tid", int64(tid))
	}
	t.buf = append(t.buf, `,"args":{"name":`...)
	t.appendQuoted(name)
	t.buf = append(t.buf, '}', '}')
	t.flush()
}

// ProcessName names a process row in the viewer.
func (t *TraceWriter) ProcessName(pid int, name string) { t.meta("process_name", pid, -1, name) }

// ThreadName names a thread row in the viewer.
func (t *TraceWriter) ThreadName(pid, tid int, name string) { t.meta("thread_name", pid, tid, name) }

// Close terminates the JSON document and flushes. The TraceWriter must
// not be used afterwards.
func (t *TraceWriter) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	t.buf = append(t.buf, "\n]}\n"...)
	t.flush()
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}
