package export

import (
	"bytes"
	"io"
	"testing"
)

// FuzzStreamDecode throws arbitrary bytes at the NDJSON corpus reader.
// The contract under hostile input: OpenStream and Next either return
// an error or yield chunks whose every test and trace is non-nil, never
// panic, and the worker-parallel reader reaches the same outcome as the
// serial one. The committed seed corpus holds a small valid stream, one
// cut mid-line and one without its footer; a real campaign's stream is
// added here so the fuzzer also starts deep inside a full-size file.
func FuzzStreamDecode(f *testing.F) {
	buf, _ := writeStreamed(f, streamCfg(60, 20), 1)
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(columnarMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		serial := readStreamChunks(t, data, 1)
		if parallel := readStreamChunks(t, data, 2); parallel != serial {
			t.Fatalf("worker reader read %d chunks, serial reader %d", parallel, serial)
		}
	})
}

// readStreamChunks opens data with the given decode workers and reads
// it to the end, failing t on any nil test or trace in a yielded chunk.
// It returns the number of chunks read, or -1 when the stream errors.
func readStreamChunks(t *testing.T, data []byte, workers int) int {
	sr, err := OpenStreamWorkers(bytes.NewReader(data), workers)
	if err != nil {
		return -1
	}
	defer sr.Close()
	for n := 0; ; n++ {
		c, err := sr.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			return -1
		}
		for i, tst := range c.Tests {
			if tst == nil {
				t.Fatalf("chunk %d: test %d is nil", c.Chunk, i)
			}
		}
		for i, tr := range c.Traces {
			if tr == nil {
				t.Fatalf("chunk %d: trace %d is nil", c.Chunk, i)
			}
		}
	}
}
