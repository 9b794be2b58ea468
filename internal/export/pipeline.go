// Worker-parallel corpus encode and decode. JSON marshalling dominates
// the cost of persisting or replaying a stream, so both directions gain
// a pooled-buffer worker path: chunks are encoded (or decoded) by a
// small worker pool and re-sequenced through a reorder buffer, keeping
// the bytes on disk and the chunks handed to the caller identical to
// the serial path. The single-writer/single-reader protocol of
// StreamWriter and StreamReader is unchanged — parallelism is entirely
// internal.
package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"throughputlab/internal/stream"
)

// linePool recycles per-line encode/decode buffers across chunks and
// across writers. Buffers that ballooned past maxPooledLine are dropped
// instead of pinning chunk-sized allocations forever.
var linePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledLine = 4 << 20

func getLineBuf() *bytes.Buffer {
	b := linePool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putLineBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledLine {
		linePool.Put(b)
	}
}

// encJob is one chunk awaiting encoding, tagged with its output
// sequence number.
type encJob struct {
	seq  int
	line StreamChunk
}

// encodePipeline fans chunk encoding out to workers and re-sequences
// the encoded lines before they reach the underlying writer.
type encodePipeline struct {
	in   chan encJob
	ro   *stream.Reorder[*bytes.Buffer]
	wg   sync.WaitGroup
	done chan struct{}
	next int // next sequence number; single producer (WriteChunk)

	mu      sync.Mutex
	retired sync.Cond // signaled as written advances or the pipeline fails
	written int       // frames the sequencer has retired, for drain's barrier
	err     error
}

func (ep *encodePipeline) fail(err error) {
	ep.mu.Lock()
	if ep.err == nil {
		ep.err = err
	}
	ep.retired.Broadcast()
	ep.mu.Unlock()
}

func (ep *encodePipeline) firstErr() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.err
}

// retire counts one frame through the sequencer, waking drainers.
func (ep *encodePipeline) retire() {
	ep.mu.Lock()
	ep.written++
	ep.retired.Broadcast()
	ep.mu.Unlock()
}

// drain blocks until the sequencer has retired the first n submitted
// frames (they reached the bufio layer) or the pipeline failed.
func (ep *encodePipeline) drain(n int) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for ep.written < n && ep.err == nil {
		ep.retired.Wait()
	}
	return ep.err
}

// NewStreamWriterWorkers is NewStreamWriter with worker-parallel chunk
// encoding. workers <= 1 returns the plain serial writer. The output
// bytes are identical at any worker count: workers encode into pooled
// buffers concurrently, and a reorder buffer restores submission order
// before anything is written. WriteChunk must still be called from a
// single goroutine; errors from the encode/write pipeline surface on a
// later WriteChunk or at Close.
func NewStreamWriterWorkers(w io.Writer, public Public, meta StreamMeta, workers int) (*StreamWriter, error) {
	sw, err := NewStreamWriter(w, public, meta)
	if err != nil || workers <= 1 {
		return sw, err
	}
	sw.attachEncoders(workers)
	return sw, nil
}

// attachEncoders wires the worker encode pipeline onto a writer whose
// header is already on disk; shared by the fresh and resumed paths.
func (sw *StreamWriter) attachEncoders(workers int) {
	ep := &encodePipeline{
		in:   make(chan encJob, workers),
		ro:   stream.NewReorder[*bytes.Buffer](workers),
		done: make(chan struct{}),
	}
	ep.retired.L = &ep.mu
	for i := 0; i < workers; i++ {
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			// Workers pull jobs in submission order, so in-flight
			// sequence numbers are dense and a window of `workers`
			// guarantees progress. After a failure the worker keeps
			// draining so WriteChunk never wedges on a full channel.
			dead := false
			for job := range ep.in {
				if dead {
					continue
				}
				buf := getLineBuf()
				if err := json.NewEncoder(buf).Encode(job.line); err != nil {
					err = fmt.Errorf("export: encoding corpus stream: %w", err)
					ep.fail(err)
					ep.ro.Fail(err)
					putLineBuf(buf)
					dead = true
					continue
				}
				if !ep.ro.Put(job.seq, buf) {
					putLineBuf(buf)
					dead = true
				}
			}
		}()
	}
	go func() {
		for {
			buf, ok := ep.ro.Next()
			if !ok {
				break
			}
			if ep.firstErr() == nil {
				if _, err := sw.bw.Write(buf.Bytes()); err != nil {
					err = fmt.Errorf("export: writing corpus stream: %w", err)
					ep.fail(err)
					ep.ro.Fail(err)
				}
			}
			putLineBuf(buf)
			ep.retire()
		}
		close(ep.done)
	}()
	sw.enc = ep
}

// rawLine is one undecoded record line, tagged with its sequence
// number; err carries the read failure (io.EOF for a clean end of
// input) that stopped the line reader.
type rawLine struct {
	seq  int
	data []byte
	err  error
}

// decoded is one classified record: exactly one of chunk, footer, or
// err is set. readFail marks err as an I/O-level failure (needing the
// caller's wrapping) rather than an already-formatted decode error.
type decoded struct {
	chunk    *StreamChunk
	footer   *StreamFooter
	err      error
	readFail bool
}

// decodeRecord classifies and unmarshals one record line. It is the
// single decode routine shared by the serial and worker paths, so the
// two report identical errors.
func decodeRecord(rl rawLine) decoded {
	if rl.err != nil {
		return decoded{err: rl.err, readFail: true}
	}
	if bytes.HasPrefix(rl.data, []byte(`{"footer"`)) {
		var f StreamFooter
		if err := json.Unmarshal(rl.data, &f); err != nil {
			return decoded{err: fmt.Errorf("export: corpus stream: invalid footer: %w", err)}
		}
		return decoded{footer: &f}
	}
	var c StreamChunk
	if err := json.Unmarshal(rl.data, &c); err != nil {
		return decoded{err: fmt.Errorf("export: corpus stream: chunk %d: invalid line: %w", rl.seq, err)}
	}
	// A JSON null decodes to a nil record, which every consumer would
	// dereference; the writer never emits one.
	for i, t := range c.Tests {
		if t == nil {
			return decoded{err: fmt.Errorf("export: corpus stream: chunk %d: test %d is null", rl.seq, i)}
		}
	}
	for i, tr := range c.Traces {
		if tr == nil {
			return decoded{err: fmt.Errorf("export: corpus stream: chunk %d: trace %d is null", rl.seq, i)}
		}
	}
	return decoded{chunk: &c}
}

// errReaderClosed kills the decode pipeline when the caller abandons a
// stream before its footer.
var errReaderClosed = errors.New("export: corpus stream reader closed")

// decodePipeline reads raw lines ahead of the caller and unmarshals
// them on workers, re-sequenced so Next still observes file order.
type decodePipeline struct {
	in       chan rawLine
	ro       *stream.Reorder[decoded]
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// OpenStreamWorkers is OpenStream with worker-parallel chunk decoding.
// workers <= 1 returns the plain serial reader. Next returns the same
// chunks, in the same order, with the same errors, at any worker
// count. A worker-backed reader holds up to roughly 2×workers decoded
// chunks in flight; call Close when abandoning it before EOF, or the
// decode goroutines leak.
func OpenStreamWorkers(r io.Reader, workers int) (*StreamReader, error) {
	sr, err := OpenStream(r)
	if err != nil || workers <= 1 {
		return sr, err
	}
	dp := &decodePipeline{
		in:   make(chan rawLine, workers),
		ro:   stream.NewReorder[decoded](workers),
		stop: make(chan struct{}),
	}
	dp.wg.Add(1)
	go func() { // line reader: the only goroutine touching sr.br
		defer dp.wg.Done()
		defer close(dp.in)
		for seq := 0; ; seq++ {
			data, err := sr.readLine()
			rl := rawLine{seq: seq, data: data, err: err}
			select {
			case dp.in <- rl:
			case <-dp.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for i := 0; i < workers; i++ {
		dp.wg.Add(1)
		go func() {
			defer dp.wg.Done()
			dead := false
			for rl := range dp.in {
				if dead {
					continue
				}
				if !dp.ro.Put(rl.seq, decodeRecord(rl)) {
					dead = true
				}
			}
		}()
	}
	go func() { dp.wg.Wait(); dp.ro.Close() }()
	sr.dp = dp
	return sr, nil
}

// Close releases a worker-backed reader's decode goroutines; it is a
// no-op for serial readers and after a completed replay. Safe to call
// more than once.
func (sr *StreamReader) Close() error {
	if sr.dp == nil {
		return nil
	}
	sr.dp.stopOnce.Do(func() {
		close(sr.dp.stop)
		sr.dp.ro.Fail(errReaderClosed)
	})
	sr.dp.wg.Wait()
	return nil
}

// ReadWorkers is Read with worker-parallel stream decoding. A
// single-blob dataset ignores the worker count (its decode is one
// JSON document); a chunked stream or columnar corpus is materialized
// through its worker-parallel reader.
func ReadWorkers(r io.Reader, workers int) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	isStream := false
	if head, err := br.Peek(len(streamMagic)); err == nil && bytes.HasPrefix(head, []byte(streamMagic)) {
		isStream = true
	} else if head, err := br.Peek(len(columnarMagic)); err == nil && string(head) == columnarMagic {
		isStream = true
	}
	if isStream {
		cr, err := OpenCorpusWorkers(br, workers)
		if err != nil {
			return nil, err
		}
		defer cr.Close()
		return materializeCorpus(cr)
	}
	return Read(br)
}
