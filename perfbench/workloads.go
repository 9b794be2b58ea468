package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/checkpoint"
	"throughputlab/internal/datasets"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/mapit"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// corpusFormat is the format every workload publishes and reloads.
const corpusFormat = "columnar"

// pipelineDepth is cmd/tputlab's report-pipeline stage queue depth.
const pipelineDepth = 1

// inputs are one workload's generated inputs; run.py derives them from
// the benchmark seed and passes them as flags.
type inputs struct {
	Workload string
	Scale    string
	Tests    int
	Seed     int64
	Workers  int
	Dir      string
}

// options builds the experiment options the CLI would build for
// `-scale S -seed N -tests T -parallel W -genworkers W`.
func (in inputs) options() (experiments.Options, error) {
	var opts experiments.Options
	switch in.Scale {
	case "default":
		opts = experiments.DefaultOptions()
	case "xlarge":
		opts = experiments.DefaultOptions()
		opts.Topo.Scale = datasets.XLargeScale()
	default:
		return opts, fmt.Errorf("unsupported scale %q (want default or xlarge)", in.Scale)
	}
	if in.Tests < 1 || in.Workers < 1 {
		return opts, fmt.Errorf("tests and workers must be >= 1 (got %d, %d)", in.Tests, in.Workers)
	}
	opts.Topo.Seed = in.Seed
	opts.Topo.Workers = in.Workers
	opts.Collect.Tests = in.Tests
	opts.Workers = in.Workers
	return opts, nil
}

// corpusPath is where a workload's checkpointed corpus is published.
func (in inputs) corpusPath(name string) string {
	return filepath.Join(in.Dir, in.Workload+"-"+name+".tlc")
}

// counts are one collection pass's (or one corpus's) totals.
type counts struct {
	What      string `json:"what"`
	Scheduled int    `json:"scheduled"`
	Tests     int    `json:"tests"`
	Traces    int    `json:"traces"`
	NoTrace   int    `json:"tests_without_trace"`
}

// check holds a clean campaign to its accounting: with faults off every
// scheduled test is published, and every test has a trace or is
// counted as having lost it to a busy collector.
func (c counts) check() error {
	if c.Tests != c.Scheduled {
		return fmt.Errorf("%s: %d tests published, %d scheduled", c.What, c.Tests, c.Scheduled)
	}
	if c.Traces+c.NoTrace != c.Tests {
		return fmt.Errorf("%s: %d traces + %d tests without trace != %d tests", c.What, c.Traces, c.NoTrace, c.Tests)
	}
	return nil
}

// output is one workload run's rendered output and bookkeeping.
type output struct {
	text        string
	wall        time.Duration
	counts      []counts
	corpusBytes int64
}

// generate is topogen.GenerateCtx, timed.
func generate(ctx context.Context, opts experiments.Options, tr *tracer, parent int) (*topogen.World, error) {
	a, _ := tr.runtimeSample()
	sp := tr.start("topogen.generate", parent)
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	tr.end(sp)
	tr.allocMB("topogen.alloc_mb", a)
	return w, err
}

// collectBatch is platform.CollectParallelCtx, timed.
func collectBatch(ctx context.Context, w *topogen.World, opts experiments.Options, tr *tracer, parent int) (*platform.Corpus, error) {
	a, _ := tr.runtimeSample()
	sp := tr.start("platform.collect", parent)
	c, err := platform.CollectParallelCtx(ctx, w, opts.Collect, opts.Workers)
	tr.end(sp)
	tr.allocMB("platform.alloc_mb", a)
	if err != nil {
		return nil, err
	}
	tr.add("platform.collect_calls", 1)
	return c, nil
}

// collectStream runs one streamed collection pass into pipe and closes
// it, as cmd/tputlab does. Time in the sink (Pipeline.Send) is a child
// of the collect span, so the collect span's self time is collection
// alone.
func collectStream(ctx context.Context, w *topogen.World, opts experiments.Options, tr *tracer, parent int,
	pipe *stream.Pipeline[*platform.Chunk]) (*platform.StreamStats, error) {
	a, _ := tr.runtimeSample()
	sp := tr.start("platform.collect", parent)
	st, err := platform.CollectStreamCtx(ctx, w, opts.Collect, opts.Workers, func(c *platform.Chunk) error {
		s := tr.start("stream.send_wait", sp)
		err := pipe.Send(c)
		tr.end(s)
		return err
	})
	tr.end(sp)
	tr.allocMB("platform.alloc_mb", a)
	s := tr.start("stream.close", parent)
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.add("platform.collect_calls", 1)
	tr.add("platform.chunks", float64(st.Chunks))
	return st, nil
}

// corpusCounts returns a materialized corpus's totals.
func corpusCounts(what string, opts experiments.Options, c *platform.Corpus) counts {
	return counts{What: what, Scheduled: opts.Collect.Tests, Tests: len(c.Tests), Traces: len(c.Traces), NoTrace: c.TestsWithoutTrace}
}

// streamCounts returns a collection pass's totals.
func streamCounts(what string, opts experiments.Options, st *platform.StreamStats) counts {
	return counts{What: what, Scheduled: opts.Collect.Tests, Tests: st.Tests, Traces: st.Traces, NoTrace: st.TestsWithoutTrace}
}

// recordCampaign records the per-campaign layer values of a run that
// generated a world and collected c.
func recordCampaign(tr *tracer, w *topogen.World, c counts) {
	if tr == nil {
		return
	}
	tr.set("platform.tests", float64(c.Tests))
	tr.set("platform.traces", float64(c.Traces))
	s := w.Resolver.Stats()
	tr.set("routing.segment_hit_rate", hitRate(s.SegmentHits, s.SegmentMisses))
	tr.set("routing.inter_hit_rate", hitRate(s.InterHits, s.InterMisses))
	tr.set("routing.aspath_hit_rate", hitRate(s.ASPathHits, s.ASPathMisses))
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// fingerprint is the checkpoint identity cmd/tputlab stamps on a
// -corpus-out campaign.
func fingerprint(scale string, opts experiments.Options) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Scale:      scale,
		Seed:       opts.Topo.Seed,
		Tests:      opts.Collect.Tests,
		Shards:     opts.Collect.Shards,
		ChunkTests: opts.Collect.ChunkTests,
		Faults:     opts.Collect.Faults.Name,
		FaultSeed:  opts.Collect.FaultSeed,
		Format:     corpusFormat,
	}
}

// createCorpus opens the checkpointing writer `-corpus-out path
// -corpus-format columnar` opens, with the default barrier cadence. The
// corpus bytes go to sink instead of the partial file, so that no run
// times the disk: every fsync, manifest rewrite and rename still
// happens, but on a file that holds no corpus bytes. The file published
// at path is therefore empty; the corpus, if kept, is in sink.
func createCorpus(path, scale string, w *topogen.World, opts experiments.Options, sink io.Writer) (*checkpoint.Writer, error) {
	return checkpoint.Create(path, corpusFormat, export.FromWorld(w, nil).Public,
		export.StreamMeta{Scale: scale, Seed: opts.Topo.Seed, Tests: opts.Collect.Tests},
		fingerprint(scale, opts), opts.Workers,
		checkpoint.Options{WrapWriter: func(io.Writer) io.Writer { return sink }})
}

// publish seals a checkpointed corpus, as cmd/tputlab's -corpus-out
// seal does once collection succeeded, and removes the empty file it
// published.
func publish(ckw *checkpoint.Writer, path string, tr *tracer, parent int) error {
	sp := tr.start("checkpoint.publish", parent)
	err := ckw.Close()
	tr.end(sp)
	os.Remove(path)
	return err
}

// batchReport is `tputlab report -scale S -seed N -tests T`: the batch
// path that materializes the corpus.
func batchReport(ctx context.Context, in inputs, tr *tracer) (*output, error) {
	opts, err := in.options()
	if err != nil {
		return nil, err
	}
	root := tr.start("bench.run", 0)
	defer tr.end(root)
	start := time.Now()
	w, err := generate(ctx, opts, tr, root)
	if err != nil {
		return nil, err
	}
	corpus, err := collectBatch(ctx, w, opts, tr, root)
	if err != nil {
		return nil, err
	}
	sp := tr.start("experiments.env", root)
	env := experiments.NewEnvWithCorpus(opts, w, corpus)
	tr.end(sp)
	sp = tr.start("report.build", root)
	rep := report.Build(env, report.DefaultConfig())
	tr.end(sp)
	sp = tr.start("report.render", root)
	text := rep.Render() + "\n"
	tr.end(sp)
	out := &output{text: text, wall: time.Since(start), counts: []counts{corpusCounts("corpus", opts, corpus)}}
	recordCampaign(tr, w, out.counts[0])
	return out, nil
}

// streamReport is `tputlab report -stream -corpus-out FILE
// -corpus-format columnar`: world generation, pass 1 (collection into
// MAP-IT and the checkpointed corpus), publication, pass 2 (collection
// again into aggregation, matching and the bdrmap border accumulator),
// then the rendered report. The corpus bytes go to sink (see
// createCorpus).
func streamReport(ctx context.Context, in inputs, tr *tracer, sink io.Writer) (*output, error) {
	opts, err := in.options()
	if err != nil {
		return nil, err
	}
	root := tr.start("bench.run", 0)
	defer tr.end(root)
	start := time.Now()
	w, err := generate(ctx, opts, tr, root)
	if err != nil {
		return nil, err
	}
	mopts := export.FromWorld(w, nil).Lookups().MapItOpts()
	mopts.Workers = opts.Workers
	b := report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)

	path := in.corpusPath("stream")
	sp := tr.start("checkpoint.create", root)
	ckw, err := createCorpus(path, in.Scale, w, opts, sink)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pass1 := tr.start("bench.pass1", root)
	pipe := stream.NewPipeline("pass1", pipelineDepth, nil,
		stream.Stage[*platform.Chunk]{Name: "mapit", Fn: func(c *platform.Chunk) error {
			s := tr.start("mapit.add", pass1)
			b.AddTraces(c.Traces)
			tr.end(s)
			return nil
		}},
		stream.Stage[*platform.Chunk]{Name: "export", Fn: func(c *platform.Chunk) error {
			s := tr.start("checkpoint.write", pass1)
			err := ckw.WriteChunk(c)
			tr.end(s)
			return err
		}},
	)
	st1, err := collectStream(ctx, w, opts, tr, pass1, pipe)
	tr.end(pass1)
	if err != nil {
		ckw.Discard()
		return nil, err
	}
	ft := ckw.Footer()
	if err := publish(ckw, path, tr, root); err != nil {
		return nil, err
	}
	sp = tr.start("mapit.finish", root)
	inf := b.FinishInference()
	tr.end(sp)

	acc := bdrmapAccumulator(w, inf, mopts)
	pass2 := tr.start("bench.pass2", root)
	pipe = stream.NewPipeline("pass2", pipelineDepth, nil,
		stream.Stage[*platform.Chunk]{Name: "aggregate", Fn: func(c *platform.Chunk) error {
			s := tr.start("report.aggregate", pass2)
			b.AddTests(c.Tests)
			tr.end(s)
			return nil
		}},
		stream.Stage[*platform.Chunk]{Name: "match", Fn: func(c *platform.Chunk) error {
			s := tr.start("report.match", pass2)
			b.AddMatch(c.Tests, c.Traces, c.Watermark)
			tr.end(s)
			return nil
		}},
		stream.Stage[*platform.Chunk]{Name: "bdrmap", Fn: func(c *platform.Chunk) error {
			s := tr.start("bdrmap.add", pass2)
			acc.Add(c.Traces)
			tr.end(s)
			return nil
		}},
	)
	st2, err := collectStream(ctx, w, opts, tr, pass2, pipe)
	tr.end(pass2)
	if err != nil {
		return nil, err
	}
	sp = tr.start("report.render", root)
	text := b.Finish(st2.Completeness).Render() + "\n"
	tr.end(sp)
	out := &output{text: text, wall: time.Since(start), counts: []counts{
		streamCounts("pass1", opts, st1),
		streamCounts("pass2", opts, st2),
		{What: "published corpus", Scheduled: opts.Collect.Tests, Tests: ft.Tests, Traces: ft.Traces, NoTrace: ft.TestsWithoutTrace},
	}}
	recordCampaign(tr, w, out.counts[0])
	return out, nil
}

// bdrmapAccumulator arms the border accumulator cmd/tputlab's streamed
// report feeds: the inference seen from the M-Lab host networks.
func bdrmapAccumulator(w *topogen.World, inf *mapit.Inference, mopts mapit.Opts) *bdrmap.BorderAccumulator {
	seen := map[topology.ASN]bool{}
	var org []topology.ASN
	for _, srv := range w.MLabServers() {
		if asn, ok := w.Topo.OriginOf(srv.Endpoint.Addr); ok && !seen[asn] {
			seen[asn] = true
			org = append(org, asn)
		}
	}
	az := bdrmap.NewAnalyzerFromInference(inf, bdrmap.Opts{OrgASNs: org, MapIt: mopts})
	return az.NewBorderAccumulator()
}

// reloadReport is `tputlab report -corpus FILE`: two passes over a
// persisted corpus, no world generation. open returns the corpus bytes
// afresh for each pass.
func reloadReport(in inputs, tr *tracer, open func() (io.ReadCloser, error)) (*output, error) {
	workers := in.Workers
	root := tr.start("bench.run", 0)
	defer tr.end(root)
	start := time.Now()

	// pass replays the whole corpus under the span parent: onHeader sees
	// the reader before any chunk, fn every chunk; the returned reader
	// carries the footer.
	pass := func(parent int, proj export.Projection, onHeader func(export.CorpusReader),
		fn func(*export.StreamChunk) error) (export.CorpusReader, error) {
		f, err := open()
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sp := tr.start("export.open", parent)
		cr, err := export.OpenCorpusProjected(f, workers, proj)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		defer cr.Close()
		if onHeader != nil {
			onHeader(cr)
		}
		for {
			sp := tr.start("export.decode", parent)
			c, err := cr.Next()
			tr.end(sp)
			if err == io.EOF {
				return cr, nil
			}
			if err != nil {
				return nil, err
			}
			if err := fn(c); err != nil {
				return nil, err
			}
		}
	}

	var b *report.StreamBuilder
	pass1 := tr.start("bench.pass1", root)
	_, err := pass(pass1, export.Projection{Traces: true}, func(cr export.CorpusReader) {
		mopts := (&export.Dataset{Public: *cr.Public()}).Lookups().MapItOpts()
		mopts.Workers = workers
		b = report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)
	}, func(c *export.StreamChunk) error {
		sp := tr.start("mapit.add", pass1)
		b.AddTraces(c.Traces)
		tr.end(sp)
		return nil
	})
	tr.end(pass1)
	if err != nil {
		return nil, err
	}
	sp := tr.start("mapit.finish", root)
	b.FinishInference()
	tr.end(sp)

	var seen counts
	pass2 := tr.start("bench.pass2", root)
	pipe := stream.NewPipeline("pass2", pipelineDepth, nil,
		stream.Stage[*export.StreamChunk]{Name: "aggregate", Fn: func(c *export.StreamChunk) error {
			s := tr.start("report.aggregate", pass2)
			b.AddTests(c.Tests)
			tr.end(s)
			seen.Tests += len(c.Tests)
			seen.Traces += len(c.Traces)
			seen.NoTrace += c.TestsWithoutTrace
			return nil
		}},
		stream.Stage[*export.StreamChunk]{Name: "match", Fn: func(c *export.StreamChunk) error {
			s := tr.start("report.match", pass2)
			b.AddMatch(c.Tests, c.Traces, c.Watermark)
			tr.end(s)
			return nil
		}},
	)
	sr, err := pass(pass2, export.EverythingProjection(), nil, func(c *export.StreamChunk) error {
		s := tr.start("stream.send_wait", pass2)
		err := pipe.Send(c)
		tr.end(s)
		return err
	})
	s := tr.start("stream.close", pass2)
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}
	tr.end(s)
	tr.end(pass2)
	if err != nil {
		return nil, err
	}
	sp = tr.start("report.render", root)
	text := b.Finish(sr.Footer().Completeness).Render() + "\n"
	tr.end(sp)
	ft := sr.Footer()
	scheduled := sr.Meta().Tests
	seen.What, seen.Scheduled = "replayed chunks", scheduled
	return &output{text: text, wall: time.Since(start), counts: []counts{
		{What: "corpus footer", Scheduled: scheduled, Tests: ft.Tests, Traces: ft.Traces, NoTrace: ft.TestsWithoutTrace},
		seen,
	}}, nil
}

// excludedEntries are the registry entries the paper workload leaves
// out. stratified orders aggregates and their links by test count alone
// over map iteration order (internal/experiments/stratified.go), so
// entries of equal count swap places from one run of a seed to the next
// and its output fails the benchmark's equal-output check. Take it off
// this list once that order is total.
var excludedEntries = map[string]bool{"stratified": true}

// paperEntries is the registry in order, without excludedEntries.
func paperEntries() []experiments.Entry {
	var out []experiments.Entry
	for _, e := range experiments.Registry() {
		if !excludedEntries[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// renderEntry is one entry's section of `tputlab run all` output.
func renderEntry(e experiments.Entry, r experiments.Renderer) string {
	return "=== " + e.Name + " — " + e.Paper + " ===\n" + r.Render() + "\n"
}

// sweep runs entries as experiments.RunParallelCtx runs the registry:
// each of workers goroutines claims the next entry in order, and the
// output is every entry's section in order. It stands in for
// RunParallelCtx, which always runs the whole registry, excludedEntries
// too. Traced, each Entry.Run is an "experiments.<name>" span under one
// "experiments.run_all" span.
func sweep(ctx context.Context, env *experiments.Env, entries []experiments.Entry, workers int,
	tr *tracer, parent int) (string, error) {
	root := tr.start("experiments.run_all", parent)
	defer tr.end(root)
	outs := make([]string, len(entries))
	errs := make([]error, len(entries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(entries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(entries) {
					return
				}
				sp := tr.start("experiments."+entries[i].Name, root)
				r, err := entries[i].Run(env)
				tr.end(sp)
				if err != nil {
					errs[i] = fmt.Errorf("experiment %s: %w", entries[i].Name, err)
					continue
				}
				outs[i] = renderEntry(entries[i], r)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return "", err
	}
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return strings.Join(outs, ""), nil
}

// paperRun is `tputlab run all` without excludedEntries: world, batch
// collection, the shared inference stages, then the entries on the
// workers.
func paperRun(ctx context.Context, in inputs, tr *tracer) (*output, error) {
	opts, err := in.options()
	if err != nil {
		return nil, err
	}
	root := tr.start("bench.run", 0)
	defer tr.end(root)
	start := time.Now()
	w, err := generate(ctx, opts, tr, root)
	if err != nil {
		return nil, err
	}
	corpus, err := collectBatch(ctx, w, opts, tr, root)
	if err != nil {
		return nil, err
	}
	sp := tr.start("experiments.env", root)
	env := experiments.NewEnvWithCorpus(opts, w, corpus)
	tr.end(sp)
	text, err := sweep(ctx, env, paperEntries(), opts.Workers, tr, root)
	if err != nil {
		return nil, err
	}
	out := &output{text: text, wall: time.Since(start), counts: []counts{corpusCounts("corpus", opts, corpus)}}
	recordCampaign(tr, w, out.counts[0])
	return out, nil
}

// paperCheck is `tputlab run all -corpus-out FILE -corpus-format
// columnar` without excludedEntries, run one Entry.Run after another:
// NewEnvCtx streams the collection through the checkpointed corpus
// (bytes to sink), then every entry is rendered in order.
func paperCheck(ctx context.Context, in inputs, sink io.Writer) (*output, error) {
	opts, err := in.options()
	if err != nil {
		return nil, err
	}
	path := in.corpusPath("check")
	var ckw *checkpoint.Writer
	opts.CorpusSink = func(w *topogen.World) (func(*platform.Chunk) error, error) {
		cw, err := createCorpus(path, in.Scale, w, opts, sink)
		if err != nil {
			return nil, err
		}
		ckw = cw
		return cw.WriteChunk, nil
	}
	env, err := experiments.NewEnvCtx(ctx, opts)
	if err != nil {
		if ckw != nil {
			ckw.Discard()
		}
		return nil, err
	}
	if err := publish(ckw, path, nil, 0); err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, e := range paperEntries() {
		r, err := e.Run(env)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		sb.WriteString(renderEntry(e, r))
	}
	return &output{text: sb.String(), counts: []counts{corpusCounts("corpus", opts, env.Corpus)}}, nil
}

// writeReloadCorpus is the reload workload's set-up: one streamed
// collection pass into a checkpointed columnar corpus, which is then
// written to path without fsync.
func writeReloadCorpus(ctx context.Context, in inputs, path string) (int64, error) {
	opts, err := in.options()
	if err != nil {
		return 0, err
	}
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	tmp := in.corpusPath("setup")
	ckw, err := createCorpus(tmp, in.Scale, w, opts, &buf)
	if err != nil {
		return 0, err
	}
	if _, err := platform.CollectStreamCtx(ctx, w, opts.Collect, opts.Workers, ckw.WriteChunk); err != nil {
		ckw.Discard()
		return 0, err
	}
	if err := publish(ckw, tmp, nil, 0); err != nil {
		return 0, err
	}
	// A new file rather than a truncated one: ext4 flushes a truncated
	// file's data on close, which would time the disk.
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	return int64(buf.Len()), os.WriteFile(path, buf.Bytes(), 0o644)
}
