package export

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"throughputlab/internal/platform"
)

// writeStreamedWorkers is writeStreamed through the worker-encoded
// writer.
func writeStreamedWorkers(t *testing.T, cfg platform.CollectConfig, collectW, encodeW int) *bytes.Buffer {
	t.Helper()
	pub := FromWorld(world, nil).Public
	var buf bytes.Buffer
	sw, err := NewStreamWriterWorkers(&buf, pub, StreamMeta{Scale: "small", Seed: cfg.Seed, Tests: cfg.Tests}, encodeW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.CollectStreamCtx(context.Background(), world, cfg, collectW, sw.WriteChunk); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestStreamWriterWorkersByteIdentical pins the parallel-encode
// contract: the file produced by worker-encoded chunks is the same
// byte sequence as the serial writer's, at any worker count.
func TestStreamWriterWorkersByteIdentical(t *testing.T) {
	cfg := streamCfg(400, 64)
	serial, _ := writeStreamed(t, cfg, 2)
	for _, workers := range []int{1, 2, 8} {
		got := writeStreamedWorkers(t, cfg, 2, workers)
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			t.Errorf("worker-encoded stream (workers=%d) differs from serial bytes", workers)
		}
	}
}

// TestOpenStreamWorkersMatchesSerial replays the same file through the
// serial and worker-decoded readers and requires identical chunks,
// totals, and footer.
func TestOpenStreamWorkersMatchesSerial(t *testing.T) {
	buf, st := writeStreamed(t, streamCfg(400, 64), 2)
	raw := buf.Bytes()
	for _, workers := range []int{1, 2, 8} {
		sr, err := OpenStreamWorkers(bytes.NewReader(raw), workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := OpenStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, cErr := sr.Next()
			w, wErr := want.Next()
			if (cErr == nil) != (wErr == nil) {
				t.Fatalf("workers=%d: reader errors diverge: %v vs %v", workers, cErr, wErr)
			}
			if cErr != nil {
				if cErr != io.EOF {
					t.Fatal(cErr)
				}
				break
			}
			if c.Chunk != w.Chunk || c.Watermark != w.Watermark ||
				len(c.Tests) != len(w.Tests) || len(c.Traces) != len(w.Traces) {
				t.Fatalf("workers=%d: chunk %d differs from serial replay", workers, w.Chunk)
			}
		}
		f := sr.Footer()
		if f == nil || f.Tests != st.Tests || f.Chunks != st.Chunks {
			t.Fatalf("workers=%d: footer %+v, writer recorded %d chunks / %d tests", workers, f, st.Chunks, st.Tests)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenStreamWorkersErrors keeps the descriptive failure modes of
// the serial reader: garbage lines and truncation surface with the
// same messages through the decode workers.
func TestOpenStreamWorkersErrors(t *testing.T) {
	buf, _ := writeStreamed(t, streamCfg(200, 50), 2)
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))

	garbage := append([][]byte{}, lines...)
	garbage[2] = []byte(`{"chunk": 1, "tests": [{"broken`)
	sr, err := OpenStreamWorkers(bytes.NewReader(bytes.Join(garbage, []byte("\n"))), 4)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = sr.Next(); err != nil {
			break
		}
	}
	if err == io.EOF || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("garbage chunk not rejected through decode workers: %v", err)
	}
	sr.Close()

	cut := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	sr, err = OpenStreamWorkers(bytes.NewReader(append(cut, '\n')), 4)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = sr.Next(); err != nil {
			break
		}
	}
	if err == io.EOF || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream not rejected through decode workers: %v", err)
	}
	sr.Close()
}

// TestStreamReaderCloseEarly abandons a worker-backed replay mid-file:
// Close must release the decode goroutines without hanging, and the
// reader must refuse further progress.
func TestStreamReaderCloseEarly(t *testing.T) {
	buf, _ := writeStreamed(t, streamCfg(400, 50), 2)
	sr, err := OpenStreamWorkers(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	sr.Close() // idempotent
}

// TestReadWorkers routes both on-disk formats through the parallel
// entry point.
func TestReadWorkers(t *testing.T) {
	cfg := streamCfg(300, 64)
	buf, _ := writeStreamed(t, cfg, 2)
	want, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkers(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tests) != len(want.Tests) || len(got.Traces) != len(want.Traces) ||
		got.Completeness != want.Completeness {
		t.Fatalf("ReadWorkers returned %d/%d records, Read returned %d/%d",
			len(got.Tests), len(got.Traces), len(want.Tests), len(want.Traces))
	}

	var blob bytes.Buffer
	if err := FromWorld(world, smallCorpus(t)).Write(&blob); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWorkers(&blob, 4); err != nil {
		t.Fatalf("ReadWorkers on single-blob format: %v", err)
	}
}

// benchChunk captures one representative chunk for the codec
// benchmarks.
func benchChunk(b *testing.B) *platform.Chunk {
	b.Helper()
	cfg := streamCfg(1024, 1024)
	var chunk *platform.Chunk
	if _, err := platform.CollectStreamCtx(context.Background(), world, cfg, 2, func(c *platform.Chunk) error {
		if chunk == nil {
			chunk = c
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return chunk
}

// BenchmarkStreamChunkEncode pins the pooled-buffer encode cost: the
// per-chunk allocation count must stay flat as chunks flow.
func BenchmarkStreamChunkEncode(b *testing.B) {
	chunk := benchChunk(b)
	pub := FromWorld(world, nil).Public
	sw, err := NewStreamWriter(io.Discard, pub, StreamMeta{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.WriteChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamChunkDecode pins the per-line decode cost that the
// worker path amortizes across cores.
func BenchmarkStreamChunkDecode(b *testing.B) {
	chunk := benchChunk(b)
	pub := FromWorld(world, nil).Public
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, pub, StreamMeta{})
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.WriteChunk(chunk); err != nil {
		b.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitN(buf.Bytes(), []byte("\n"), 3)
	line := lines[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := decodeRecord(rawLine{seq: 0, data: line}); d.err != nil {
			b.Fatal(d.err)
		}
	}
}
