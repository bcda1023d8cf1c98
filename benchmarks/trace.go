package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// span is one call into the system at one rung of the entry-point ladder.
// OpIndex is the request id shared by every rung: the span of the same
// index one rung up is the parent, so a layer's self time is the mean over
// ops of span(rung k) - span(rung k+1).
type span struct {
	rung     string
	kind     string
	opIndex  int
	startNS  int64 // since the rung's replay started
	endNS    int64
	virtual  int64 // virtual device ns charged during the call
	devBytes int64 // device bytes written during the call
}

// spanRecorder holds spans in a preallocated slice; nothing is written
// until the benchmark is done measuring.
type spanRecorder struct {
	workload string
	spans    []span
}

func newSpanRecorder(workload string, capacity int) *spanRecorder {
	return &spanRecorder{workload: workload, spans: make([]span, 0, capacity)}
}

func (r *spanRecorder) add(s span) { r.spans = append(r.spans, s) }

// write stores the spans as dir/trace-<workload>.jsonl, one object a line.
func (r *spanRecorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+r.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range r.spans {
		line = append(line[:0], `{"workload":"`...)
		line = append(line, r.workload...)
		line = append(line, `","rung":"`...)
		line = append(line, s.rung...)
		line = append(line, `","op_index":`...)
		line = strconv.AppendInt(line, int64(s.opIndex), 10)
		line = append(line, `,"op_kind":"`...)
		line = append(line, s.kind...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.startNS, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.endNS, 10)
		line = append(line, `,"virtual_ns":`...)
		line = strconv.AppendInt(line, s.virtual, 10)
		line = append(line, `,"dev_bytes":`...)
		line = strconv.AppendInt(line, s.devBytes, 10)
		line = append(line, "}\n"...)
		w.Write(line) // the error surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
