// Chunked append-only corpus format: one NDJSON line per record, so a
// campaign can persist while it collects and a report can replay it in
// bounded memory.
//
//	{"format":"tputlab-corpus/1", "public":{...}, "meta":{...}}   header
//	{"chunk":0, "watermark":…, "tests":[…], "traces":[…], …}      chunk ×N
//	{"footer":true, "chunks":N, "tests":…, …}                      footer
//
// The header carries everything inference needs before any record
// (public lookups, campaign metadata); chunks arrive in collection
// order with their scheduling watermark, so core.StreamMatcher can
// consume them directly; the footer totals double as a truncation
// check — a crash mid-campaign leaves a file Read refuses.
package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/traceroute"
)

// StreamFormat names the chunked corpus format version.
const StreamFormat = "tputlab-corpus/1"

// streamMagic is the byte prefix every stream file starts with; Read
// uses it to tell the two formats apart. streamHeader keeps Format
// first so Marshal emits exactly this prefix.
const streamMagic = `{"format":"` + StreamFormat + `"`

// StreamMeta describes the campaign a stream holds.
type StreamMeta struct {
	// Scale is the profile name the campaign ran under (e.g. "large").
	Scale string `json:"scale,omitempty"`
	// Seed is the campaign seed.
	Seed int64 `json:"seed"`
	// Tests is the scheduled test count.
	Tests int `json:"tests"`
}

type streamHeader struct {
	Format string     `json:"format"`
	Public Public     `json:"public"`
	Meta   StreamMeta `json:"meta"`
}

// StreamChunk is one persisted collection chunk.
type StreamChunk struct {
	Chunk             int                   `json:"chunk"`
	Watermark         int                   `json:"watermark"`
	Tests             []*ndt.Test           `json:"tests,omitempty"`
	Traces            []*traceroute.Trace   `json:"traces,omitempty"`
	TestsWithoutTrace int                   `json:"tests_without_trace,omitempty"`
	Completeness      platform.Completeness `json:"completeness,omitzero"`
}

// StreamFooter closes a stream with campaign totals.
type StreamFooter struct {
	Footer            bool                  `json:"footer"`
	Chunks            int                   `json:"chunks"`
	Tests             int                   `json:"tests"`
	Traces            int                   `json:"traces"`
	TestsWithoutTrace int                   `json:"tests_without_trace"`
	Completeness      platform.Completeness `json:"completeness,omitzero"`
}

// StreamWriter persists a campaign chunk by chunk. It buffers only the
// line being written, never the corpus.
type StreamWriter struct {
	bw     *bufio.Writer
	footer StreamFooter
	closed bool
	enc    *encodePipeline // non-nil only via NewStreamWriterWorkers
}

// NewStreamWriter writes the stream header and returns a writer ready
// for chunks. The public bundle is validated first — a conflicted
// bundle would poison every future replay of the file.
func NewStreamWriter(w io.Writer, public Public, meta StreamMeta) (*StreamWriter, error) {
	if err := public.Validate(); err != nil {
		return nil, err
	}
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<20), footer: StreamFooter{Footer: true}}
	if err := sw.writeLine(streamHeader{Format: StreamFormat, Public: public, Meta: meta}); err != nil {
		return nil, err
	}
	return sw, nil
}

// writeLine encodes one record through a pooled buffer. Encoder.Encode
// emits exactly Marshal's bytes plus the trailing newline, so this and
// the worker path produce identical files.
func (sw *StreamWriter) writeLine(v any) error {
	buf := getLineBuf()
	defer putLineBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("export: encoding corpus stream: %w", err)
	}
	if _, err := sw.bw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("export: writing corpus stream: %w", err)
	}
	return nil
}

// WriteChunk appends one collection chunk. It plugs directly into
// platform.CollectStreamCtx as the sink.
func (sw *StreamWriter) WriteChunk(c *platform.Chunk) error {
	line := StreamChunk{
		Chunk:             c.Index,
		Watermark:         c.Watermark,
		Tests:             c.Tests,
		Traces:            c.Traces,
		TestsWithoutTrace: c.TestsWithoutTrace,
		Completeness:      c.Completeness,
	}
	if sw.enc != nil {
		if err := sw.enc.firstErr(); err != nil {
			return err
		}
		sw.enc.in <- encJob{seq: sw.enc.next, line: line}
		sw.enc.next++
	} else if err := sw.writeLine(line); err != nil {
		return err
	}
	sw.footer.Chunks++
	sw.footer.Tests += len(c.Tests)
	sw.footer.Traces += len(c.Traces)
	sw.footer.TestsWithoutTrace += c.TestsWithoutTrace
	sw.footer.Completeness.Merge(c.Completeness)
	return nil
}

// Sync drains every chunk submitted so far out of the encode pipeline
// and through the bufio layer, so the underlying writer holds a prefix
// that ends exactly at a chunk boundary. It is the durability barrier
// the checkpoint layer fsyncs behind; the stream stays open for more
// chunks.
func (sw *StreamWriter) Sync() error {
	if sw.enc != nil {
		if err := sw.enc.drain(sw.enc.next); err != nil {
			return err
		}
	}
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("export: writing corpus stream: %w", err)
	}
	return nil
}

// ResumeStreamWriter reopens a stream writer over a file whose header
// and first chunks are already durable: w must be positioned at the
// end of that prefix and totals must be the running footer accumulated
// over it (as ReplayPrefix reports). The writer emits no header; the
// next WriteChunk appends the chunk after the prefix.
func ResumeStreamWriter(w io.Writer, totals StreamFooter, workers int) *StreamWriter {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<20), footer: totals}
	sw.footer.Footer = true
	if workers > 1 {
		sw.attachEncoders(workers)
	}
	return sw
}

// Close seals the stream with the footer. Without it the file reads as
// truncated — which is exactly right for a crashed campaign.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if sw.enc != nil {
		close(sw.enc.in)
		sw.enc.wg.Wait()
		sw.enc.ro.Close()
		<-sw.enc.done
		if err := sw.enc.firstErr(); err != nil {
			return err
		}
	}
	if err := sw.writeLine(sw.footer); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// Abandon shuts the writer down without sealing the stream: encode
// workers stop, but no footer is written, so the file stays readable
// only as a truncated (resumable) prefix. Used when a campaign is
// interrupted after a durable checkpoint — writing a footer there
// would make a partial corpus read as a complete smaller one.
func (sw *StreamWriter) Abandon() {
	if sw.closed {
		return
	}
	sw.closed = true
	if sw.enc != nil {
		close(sw.enc.in)
		sw.enc.wg.Wait()
		sw.enc.ro.Close()
		<-sw.enc.done
	}
}

// Footer exposes the running totals (complete once Close has run).
func (sw *StreamWriter) Footer() StreamFooter { return sw.footer }

// StreamReader replays a persisted corpus chunk by chunk, holding one
// chunk in memory at a time.
type StreamReader struct {
	br     *bufio.Reader
	header streamHeader
	footer *StreamFooter
	read   StreamFooter    // accumulated totals for the footer cross-check
	dp     *decodePipeline // non-nil only via OpenStreamWorkers
}

// OpenStream reads and validates the stream header. A columnar corpus
// fed to this NDJSON-only entry point is named as such instead of
// surfacing as a JSON syntax error.
func OpenStream(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{br: bufio.NewReaderSize(r, 1<<20)}
	if head, err := sr.br.Peek(len(columnarMagic)); err == nil && string(head) == columnarMagic {
		return nil, fmt.Errorf("export: corpus is a binary columnar corpus (%s), not an NDJSON stream: a columnar corpus requires the columnar reader — open it with OpenColumnar/OpenCorpus or -corpus-format columnar",
			ColumnarFormat)
	}
	line, err := sr.readLine()
	if err != nil {
		return nil, fmt.Errorf("export: corpus stream: missing header: %w", err)
	}
	if err := json.Unmarshal(line, &sr.header); err != nil {
		return nil, fmt.Errorf("export: corpus stream: invalid header: %w", err)
	}
	if sr.header.Format != StreamFormat {
		return nil, fmt.Errorf("export: corpus stream: unsupported format %q (want %q)",
			sr.header.Format, StreamFormat)
	}
	if err := sr.header.Public.Validate(); err != nil {
		return nil, err
	}
	return sr, nil
}

// readLine returns the next non-empty line without the newline.
func (sr *StreamReader) readLine() ([]byte, error) {
	for {
		line, err := sr.br.ReadBytes('\n')
		line = bytes.TrimRight(line, "\r\n")
		if len(line) > 0 {
			return line, nil
		}
		if err != nil {
			return nil, err // io.EOF or a real read failure
		}
	}
}

// Public returns the header's lookup bundle.
func (sr *StreamReader) Public() *Public { return &sr.header.Public }

// Meta returns the header's campaign metadata.
func (sr *StreamReader) Meta() StreamMeta { return sr.header.Meta }

// Next returns the next chunk, or io.EOF after the footer has been
// consumed and cross-checked. A stream that ends without a footer, a
// line that is not valid JSON, out-of-order chunk indices, and footer
// totals that contradict the chunks all surface as descriptive errors.
func (sr *StreamReader) Next() (*StreamChunk, error) {
	if sr.footer != nil {
		return nil, io.EOF
	}
	var d decoded
	if sr.dp != nil {
		var ok bool
		d, ok = sr.dp.ro.Next()
		if !ok {
			// The pipeline drained without producing this record: only
			// possible through Close (or a refused Put after it).
			if err := sr.dp.ro.Err(); err != nil {
				return nil, err
			}
			d = decoded{err: io.EOF, readFail: true}
		}
	} else {
		line, err := sr.readLine()
		d = decodeRecord(rawLine{seq: sr.read.Chunks, data: line, err: err})
	}
	return sr.consume(d)
}

// consume folds one classified record into the reader's running state:
// the in-order half of Next, shared by the serial and worker paths.
func (sr *StreamReader) consume(d decoded) (*StreamChunk, error) {
	switch {
	case d.readFail && d.err == io.EOF:
		return nil, fmt.Errorf("export: corpus stream truncated: no footer after %d chunks (%d tests)",
			sr.read.Chunks, sr.read.Tests)
	case d.readFail:
		return nil, fmt.Errorf("export: corpus stream: %w", d.err)
	case d.err != nil:
		return nil, d.err
	case d.footer != nil:
		f := *d.footer
		sr.read.Footer = true
		if f != sr.read {
			return nil, fmt.Errorf("export: corpus stream footer mismatch: footer says %d chunks / %d tests / %d traces, stream holds %d / %d / %d",
				f.Chunks, f.Tests, f.Traces, sr.read.Chunks, sr.read.Tests, sr.read.Traces)
		}
		sr.footer = d.footer
		return nil, io.EOF
	}
	c := d.chunk
	if c.Chunk != sr.read.Chunks {
		return nil, fmt.Errorf("export: corpus stream: chunk index %d where %d expected", c.Chunk, sr.read.Chunks)
	}
	sr.read.Chunks++
	sr.read.Tests += len(c.Tests)
	sr.read.Traces += len(c.Traces)
	sr.read.TestsWithoutTrace += c.TestsWithoutTrace
	sr.read.Completeness.Merge(c.Completeness)
	return c, nil
}

// Footer returns the stream totals; non-nil only after Next returned
// io.EOF.
func (sr *StreamReader) Footer() *StreamFooter { return sr.footer }

// ReadTotals snapshots the totals accumulated over the chunks consumed
// so far — the running footer a resumed writer continues from.
func (sr *StreamReader) ReadTotals() StreamFooter {
	t := sr.read
	t.Footer = true
	return t
}

// readStreamAll materializes a whole stream into a Dataset (the Read
// path for stream files).
func readStreamAll(r io.Reader) (*Dataset, error) {
	sr, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	return materializeCorpus(sr)
}
