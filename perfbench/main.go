// Command tlbench runs one throughputlab benchmark workload once, in
// this process, and prints what it measured as one JSON line. run.py,
// next to it, builds it, starts it afresh for every run, and turns the
// lines into the benchmark's metrics.
//
// Usage:
//
//	tlbench prepare|run|check -workload NAME -scale S -tests N -seed N -workers N -dir DIR [-trace]
//
// prepare is the workload's set-up: it checks the work directory and,
// for reload, writes the corpus the runs read. run is one timed run;
// with -trace it also records a span around every call into a layer
// and reports the per-layer values. check runs the workload's
// cross-path identity once: each alternate path it reports must render
// the bytes the timed runs render.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
)

// runResult is the JSON line run and check print.
type runResult struct {
	WallS       float64            `json:"wall_s"`
	SHA256      string             `json:"sha256"`
	OutputBytes int                `json:"output_bytes"`
	Counts      []counts           `json:"counts"`
	CorpusBytes int64              `json:"corpus_bytes"`
	Errors      []string           `json:"errors"`
	Paths       map[string]string  `json:"paths,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Spans       []Span             `json:"spans,omitempty"`
}

// prepResult is the JSON line prepare prints.
type prepResult struct {
	FSType      string `json:"fs_type"`
	RAMBacked   bool   `json:"ram_backed"`
	CorpusBytes int64  `json:"corpus_bytes"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tlbench prepare|run|check [flags]")
		os.Exit(2)
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet(mode, flag.ExitOnError)
	var in inputs
	fs.StringVar(&in.Workload, "workload", "", "campaign, stream, reload or paper")
	fs.StringVar(&in.Scale, "scale", "", "world scale: default or xlarge")
	fs.IntVar(&in.Tests, "tests", 0, "scheduled tests")
	fs.Int64Var(&in.Seed, "seed", 1, "generation seed")
	fs.IntVar(&in.Workers, "workers", 1, "collection, inference and generation workers")
	fs.StringVar(&in.Dir, "dir", "", "work directory for corpus files")
	traced := fs.Bool("trace", false, "record spans and per-layer values")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if in.Dir == "" {
		fmt.Fprintln(os.Stderr, "tlbench: -dir is required")
		os.Exit(2)
	}
	ctx := context.Background()
	var res any
	var err error
	switch mode {
	case "prepare":
		res, err = prepare(ctx, in)
	case "run":
		var tr *tracer
		if *traced {
			tr = newTracer()
		}
		res, err = runOnce(ctx, in, tr)
	case "check":
		res, err = checkOnce(ctx, in)
	default:
		err = fmt.Errorf("unknown mode %q (want prepare, run or check)", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "tlbench:", err)
		os.Exit(1)
	}
}

// reloadInput is where the reload workload's corpus lives.
func (in inputs) reloadInput() string { return in.corpusPath("input") }

// prepare is the workload's set-up.
func prepare(ctx context.Context, in inputs) (*prepResult, error) {
	if _, err := in.options(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.Dir, 0o755); err != nil {
		return nil, err
	}
	res := &prepResult{}
	var st syscall.Statfs_t
	if err := syscall.Statfs(in.Dir, &st); err != nil {
		return nil, fmt.Errorf("statfs %s: %w", in.Dir, err)
	}
	res.FSType, res.RAMBacked = fsName(int64(st.Type))
	if in.Workload == "reload" {
		n, err := writeReloadCorpus(ctx, in, in.reloadInput())
		if err != nil {
			return nil, err
		}
		res.CorpusBytes = n
	}
	return res, nil
}

// fsName names a statfs filesystem magic and says whether it is held
// in RAM.
func fsName(magic int64) (string, bool) {
	switch magic {
	case 0x01021994:
		return "tmpfs", true
	case 0x858458f6:
		return "ramfs", true
	case 0xef53:
		return "ext4", false
	case 0x794c7630:
		return "overlayfs", false
	}
	return fmt.Sprintf("0x%x", magic), false
}

// runOnce is one timed run of the workload.
func runOnce(ctx context.Context, in inputs, tr *tracer) (*runResult, error) {
	alloc0, gc0 := tr.runtimeSample()
	var out *output
	var err error
	switch in.Workload {
	case "campaign":
		out, err = batchReport(ctx, in, tr)
	case "stream":
		// The timed run keeps none of the corpus: it only counts the
		// bytes (see createCorpus).
		var n byteCounter
		out, err = streamReport(ctx, in, tr, &n)
		if err == nil {
			out.corpusBytes = int64(n)
		}
	case "reload":
		path := in.reloadInput()
		out, err = reloadReport(in, tr, func() (io.ReadCloser, error) { return os.Open(path) })
		if err == nil {
			var fi os.FileInfo
			fi, err = os.Stat(path)
			if err == nil {
				out.corpusBytes = fi.Size()
			}
		}
	case "paper":
		out, err = paperRun(ctx, in, tr)
	default:
		err = fmt.Errorf("unknown workload %q", in.Workload)
	}
	if err != nil {
		return nil, err
	}
	res := newResult(out)
	if tr != nil {
		alloc1, gc1 := tr.runtimeSample()
		tr.set("runtime.alloc_mb", (alloc1-alloc0)/(1<<20))
		tr.set("runtime.gc_cpu_s", gc1-gc0)
		res.Spans, res.Layers = tr.finish()
		derive(res.Layers, out.corpusBytes)
	}
	return res, nil
}

// byteCounter is a writer that counts the bytes it discards.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// derive adds the per-layer rates computed from other layer values.
func derive(layers map[string]float64, corpusBytes int64) {
	if s := layers["platform.collect_s"]; s > 0 {
		layers["platform.tests_per_s"] = layers["platform.tests"] * layers["platform.collect_calls"] / s
	}
	// The reload reads the whole corpus twice: pass 1 projects traces
	// only, but still reads and checks every stripe.
	if s := layers["export.open_s"] + layers["export.decode_s"]; s > 0 {
		layers["export.decode_mb_per_s"] = 2 * float64(corpusBytes) / (1 << 20) / s
	}
}

// checkOnce renders the workload's output through its alternate paths.
func checkOnce(ctx context.Context, in inputs) (*runResult, error) {
	var buf bytes.Buffer
	var out *output
	var err error
	paths := map[string]string{}
	switch in.Workload {
	case "campaign":
		out, err = streamReport(ctx, in, nil, &buf)
		if err == nil {
			paths["report -stream"] = digest(out.text)
		}
	case "stream":
		out, err = streamReport(ctx, in, nil, &buf)
		if err == nil {
			paths["report -stream"] = digest(out.text)
			var re *output
			re, err = reloadReport(in, nil, func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
			})
			if err == nil {
				paths["report -corpus"] = digest(re.text)
				out.counts = append(out.counts, re.counts...)
			}
		}
	case "reload":
		out, err = batchReport(ctx, in, nil)
		if err == nil {
			paths["report"] = digest(out.text)
		}
	case "paper":
		out, err = paperCheck(ctx, in, &buf)
		if err == nil {
			paths["run all -corpus-out, entry by entry"] = digest(out.text)
		}
	default:
		err = fmt.Errorf("unknown workload %q", in.Workload)
	}
	if err != nil {
		return nil, err
	}
	out.corpusBytes = int64(buf.Len())
	res := newResult(out)
	res.Paths = paths
	return res, nil
}

// newResult hashes a run's output and checks its accounting.
func newResult(out *output) *runResult {
	res := &runResult{
		WallS:       out.wall.Seconds(),
		SHA256:      digest(out.text),
		OutputBytes: len(out.text),
		Counts:      out.counts,
		CorpusBytes: out.corpusBytes,
		Errors:      []string{},
	}
	if len(out.text) == 0 {
		res.Errors = append(res.Errors, "empty output")
	}
	for _, c := range out.counts {
		if err := c.check(); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	return res
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
