package export

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"throughputlab/internal/platform"
)

// writeStreamed persists a campaign through the chunked writer via
// platform.CollectStreamCtx and returns the bytes plus the stream stats.
func writeStreamed(t testing.TB, cfg platform.CollectConfig, workers int) (*bytes.Buffer, *platform.StreamStats) {
	t.Helper()
	pub := FromWorld(world, nil).Public
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, pub, StreamMeta{Scale: "small", Seed: cfg.Seed, Tests: cfg.Tests})
	if err != nil {
		t.Fatal(err)
	}
	st, err := platform.CollectStreamCtx(context.Background(), world, cfg, workers, sw.WriteChunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, st
}

func streamCfg(tests, chunk int) platform.CollectConfig {
	cfg := platform.DefaultCollect()
	cfg.Tests = tests
	cfg.PerPoolClients = 4
	cfg.ChunkTests = chunk
	return cfg
}

// TestStreamRoundTrip pins the persisted-corpus contract across both
// Read paths: the generic Read (format auto-detection) and the chunked
// StreamReader reproduce the batch corpus record for record, and the
// footer carries the campaign ledger.
func TestStreamRoundTrip(t *testing.T) {
	cfg := streamCfg(400, 64)
	batch, err := platform.CollectParallelCtx(context.Background(), world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf, st := writeStreamed(t, cfg, 4)
	raw := buf.Bytes()

	// Path 1: generic Read materializes the stream.
	back, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tests) != len(batch.Tests) || len(back.Traces) != len(batch.Traces) {
		t.Fatalf("stream Read returned %d/%d records, batch has %d/%d",
			len(back.Tests), len(back.Traces), len(batch.Tests), len(batch.Traces))
	}
	for i, tt := range batch.Tests {
		got := back.Tests[i]
		if got.ID != tt.ID || got.ClientAddr != tt.ClientAddr || got.ServerAddr != tt.ServerAddr ||
			got.StartMinute != tt.StartMinute || got.DownMbps != tt.DownMbps || got.RTTms != tt.RTTms {
			t.Fatalf("test %d differs after stream round trip", i)
		}
	}
	if back.TestsWithoutTrace != batch.TestsWithoutTrace {
		t.Errorf("TestsWithoutTrace %d, want %d", back.TestsWithoutTrace, batch.TestsWithoutTrace)
	}
	if back.Completeness != batch.Completeness {
		t.Errorf("Completeness %+v, want %+v", back.Completeness, batch.Completeness)
	}

	// Path 2: chunk-by-chunk replay sees the same totals and watermarks.
	sr, err := OpenStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Meta().Tests != cfg.Tests || sr.Meta().Scale != "small" {
		t.Errorf("meta %+v not preserved", sr.Meta())
	}
	tests, traces, chunks, lastWM := 0, 0, 0, -1
	for {
		c, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Watermark < lastWM {
			t.Fatalf("chunk %d watermark %d regressed below %d", c.Chunk, c.Watermark, lastWM)
		}
		lastWM = c.Watermark
		tests += len(c.Tests)
		traces += len(c.Traces)
		chunks++
	}
	if chunks != st.Chunks || tests != st.Tests || traces != st.Traces {
		t.Fatalf("replay saw %d chunks / %d tests / %d traces, writer recorded %d / %d / %d",
			chunks, tests, traces, st.Chunks, st.Tests, st.Traces)
	}
	if sr.Footer() == nil || sr.Footer().Tests != st.Tests {
		t.Fatal("footer missing or wrong after replay")
	}
}

// TestReadOldFormatStillWorks pins backward compatibility: the original
// single-blob format round-trips through the same Read entry point.
func TestReadOldFormatStillWorks(t *testing.T) {
	corpus := smallCorpus(t)
	d := FromWorld(world, corpus)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tests) != len(d.Tests) || back.Completeness != d.Completeness {
		t.Fatal("old-format round trip lost records or ledger")
	}
}

// TestStreamTruncated rejects a stream whose footer never arrived — the
// signature of a crashed campaign.
func TestStreamTruncated(t *testing.T) {
	buf, _ := writeStreamed(t, streamCfg(200, 50), 2)
	raw := buf.Bytes()
	// Drop the footer line (the last non-empty line).
	cut := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n')
	sr, err := OpenStream(bytes.NewReader(raw[:cut+1]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = sr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil {
		t.Fatal("truncated stream read to completion")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error not descriptive: %v", err)
	}
}

// TestStreamGarbageChunk rejects a corrupted line with a descriptive
// error instead of silently skipping records.
func TestStreamGarbageChunk(t *testing.T) {
	buf, _ := writeStreamed(t, streamCfg(200, 50), 2)
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	lines[2] = []byte(`{"chunk": 1, "tests": [{"broken`)
	sr, err := OpenStream(bytes.NewReader(bytes.Join(lines, []byte("\n"))))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = sr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("garbage chunk not rejected descriptively: %v", err)
	}
}

// TestStreamFooterMismatch rejects a footer whose totals contradict the
// chunks actually present.
func TestStreamFooterMismatch(t *testing.T) {
	buf, _ := writeStreamed(t, streamCfg(200, 50), 2)
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	// Delete one mid-stream chunk and renumber nothing: the footer now
	// over-claims. (Removing line 2 also breaks index ordering, which
	// is itself a reportable corruption.)
	mut := append(append([][]byte{}, lines[:2]...), lines[3:]...)
	sr, err := OpenStream(bytes.NewReader(bytes.Join(mut, []byte("\n"))))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = sr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil {
		t.Fatal("stream with missing chunk read to completion")
	}
}

// TestStreamWriterRejectsConflictedPublic refuses to start a stream
// from an ambiguous public bundle.
func TestStreamWriterRejectsConflictedPublic(t *testing.T) {
	pub := FromWorld(world, nil).Public
	pub.Rels = append(pub.Rels, relRow{A: pub.Rels[0].A, B: pub.Rels[0].B, Rel: "sibling"})
	if pub.Rels[0].Rel == "sibling" {
		pub.Rels[len(pub.Rels)-1].Rel = "peer"
	}
	var buf bytes.Buffer
	if _, err := NewStreamWriter(&buf, pub, StreamMeta{}); err == nil {
		t.Fatal("conflicted public bundle accepted")
	}
}
