package main

// CLI-level contracts of out-of-core resumable sweeps: an interrupted
// checkpointed sweep resumed with -resume finishes bit-identical to an
// uninterrupted run, at any -workers, a torn checkpoint falls back to the
// previous generation, shards partition the sweep, and -spill-dir runs
// match in-RAM runs exactly.

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// firstLine extracts the report line from a run's output.
func firstLine(t *testing.T, out string) string {
	t.Helper()
	line, _, ok := strings.Cut(out, "\n")
	if !ok {
		t.Fatalf("no report line in output:\n%s", out)
	}
	return line
}

func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	ck := t.TempDir() + "/sweep.ckpt"
	args := []string{"-alg", "six", "-n", "5", "-sweep", "-symmetry", "full"}

	var ref strings.Builder
	if err := run(args, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Interrupt a checkpointed sweep: cancel as soon as the first orbit's
	// checkpoint lands, so at least one orbit is completed and (almost
	// always) several are not. A cancelled run exits clean with PARTIAL.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var part strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- runContext(ctx, append(args[:len(args):len(args)], "-checkpoint", ck), &part, io.Discard)
	}()
	for i := 0; i < 2000; i++ {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("interrupted run should exit clean: %v\n%s", err, part.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written before cancellation: %v", err)
	}

	// Resume and compare the final report line byte for byte.
	var res strings.Builder
	if err := run(append(args[:len(args):len(args)], "-checkpoint", ck, "-resume"), &res, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, want := firstLine(t, res.String()), firstLine(t, ref.String()); got != want {
		t.Errorf("resumed sweep drifted:\nresumed       %s\nuninterrupted %s", got, want)
	}
}

// A checkpoint truncated mid-record (torn write) must never be silently
// loaded: -resume falls back to the previous generation, says so, and
// still reproduces the uninterrupted report.
func TestRunResumeTornCheckpointFallsBack(t *testing.T) {
	ck := t.TempDir() + "/sweep.ckpt"
	args := []string{"-alg", "six", "-n", "4", "-sweep", "-symmetry", "assignments"}

	var ref strings.Builder
	if err := run(args, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	// A complete checkpointed run saves once per orbit, leaving both the
	// final generation and its predecessor on disk.
	if err := run(append(args[:len(args):len(args)], "-checkpoint", ck), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck + ".prev"); err != nil {
		t.Fatalf("no previous generation: %v", err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var res, ew strings.Builder
	if err := run(append(args[:len(args):len(args)], "-checkpoint", ck, "-resume"), &res, &ew); err != nil {
		t.Fatalf("fallback resume failed: %v\n%s", err, ew.String())
	}
	if !strings.Contains(ew.String(), ".prev") {
		t.Errorf("fallback not reported on stderr:\n%s", ew.String())
	}
	if got, want := firstLine(t, res.String()), firstLine(t, ref.String()); got != want {
		t.Errorf("fallback resume drifted:\ngot  %s\nwant %s", got, want)
	}
}

// Resuming under a different sweep configuration must be refused, never
// silently merged.
func TestRunResumeRefusesConfigDrift(t *testing.T) {
	ck := t.TempDir() + "/sweep.ckpt"
	if err := run([]string{"-alg", "six", "-n", "4", "-sweep", "-checkpoint", ck}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-alg", "six", "-n", "4", "-sweep", "-symmetry", "assignments", "-checkpoint", ck, "-resume"},
		io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
		t.Fatalf("config drift not refused: %v", err)
	}
}

// -workers counts a sweep's orbit workers: every worker count prints the
// serial sweep and -sweep -worst lines byte for byte.
func TestRunSweepWorkersMatchSerial(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "six", "-n", "5", "-sweep", "-symmetry", "full"},
		{"-alg", "five", "-n", "4", "-sweep", "-worst", "-symmetry", "assignments"},
		{"-alg", "fast", "-n", "4", "-sweep", "-worst"},
	} {
		var serial strings.Builder
		if err := run(append(args[:len(args):len(args)], "-workers", "1"), &serial, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"3", "0"} {
			var par strings.Builder
			if err := run(append(args[:len(args):len(args)], "-workers", workers), &par, io.Discard); err != nil {
				t.Fatal(err)
			}
			if par.String() != serial.String() {
				t.Errorf("%v -workers %s drifted:\nserial\n%s\nparallel\n%s", args, workers, serial.String(), par.String())
			}
		}
	}
}

// A checkpoint is the serial sweep's whichever -workers wrote it: a sweep
// interrupted at one worker count resumes at another to the uninterrupted
// report.
func TestRunCheckpointResumeAcrossWorkers(t *testing.T) {
	args := []string{"-alg", "six", "-n", "5", "-sweep", "-symmetry", "full"}
	var ref strings.Builder
	if err := run(args, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"1", "3"}, {"3", "1"}} {
		ck := t.TempDir() + "/sweep.ckpt"
		ctx, cancel := context.WithCancel(context.Background())
		var part strings.Builder
		done := make(chan error, 1)
		go func() {
			done <- runContext(ctx, append(args[:len(args):len(args)], "-workers", pair[0], "-checkpoint", ck), &part, io.Discard)
		}()
		for i := 0; i < 2000; i++ {
			if _, err := os.Stat(ck); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("-workers %s: interrupted run should exit clean: %v\n%s", pair[0], err, part.String())
		}
		var res strings.Builder
		if err := run(append(args[:len(args):len(args)], "-workers", pair[1], "-checkpoint", ck, "-resume"), &res, io.Discard); err != nil {
			t.Fatal(err)
		}
		if got, want := firstLine(t, res.String()), firstLine(t, ref.String()); got != want {
			t.Errorf("written at -workers %s, resumed at %s:\nresumed       %s\nuninterrupted %s", pair[0], pair[1], got, want)
		}
	}
}

// A single shard covers a strict subset of the runs; explicit -shard flags
// partition the sweep.
func TestRunShardFlag(t *testing.T) {
	args := func(shard string) []string {
		return []string{"-alg", "six", "-n", "4", "-sweep", "-symmetry", "assignments", "-shard", shard}
	}
	var s0, s1 strings.Builder
	if err := run(args("0/2"), &s0, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args("1/2"), &s1, io.Discard); err != nil {
		t.Fatal(err)
	}
	runs0 := pick(t, s0.String(), "runs=")
	runs1 := pick(t, s1.String(), "runs=")
	if runs0 != "runs=2" || runs1 != "runs=1" {
		t.Errorf("C4 shards should split 3 representatives 2/1: got %s and %s", runs0, runs1)
	}
}

// -spill-dir output is byte-identical to the in-RAM run's.
func TestRunSpillMatchesInRAM(t *testing.T) {
	var ram, spill strings.Builder
	if err := run([]string{"-alg", "six", "-n", "4"}, &ram, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-alg", "six", "-n", "4", "-spill-dir", t.TempDir(), "-mem-limit", "50"}, &spill, io.Discard); err != nil {
		t.Fatal(err)
	}
	if ram.String() != spill.String() {
		t.Errorf("spilled run drifted:\nram   %s\nspill %s", ram.String(), spill.String())
	}
}

func TestRunResumableFlagValidation(t *testing.T) {
	ck := t.TempDir() + "/ssuni.ckpt"
	spill := t.TempDir()
	for _, args := range [][]string{
		{"-alg", "six", "-n", "4", "-checkpoint", "/tmp/x"},                     // requires -sweep
		{"-alg", "six", "-n", "4", "-resume"},                                   // requires -sweep
		{"-alg", "six", "-n", "4", "-shard", "0/2"},                             // requires -sweep
		{"-alg", "six", "-n", "4", "-json"},                                     // requires -sweep
		{"-alg", "six", "-n", "4", "-sweep", "-resume"},                         // requires -checkpoint
		{"-alg", "six", "-n", "4", "-sweep", "-shard", "2/2"},                   // index out of range
		{"-alg", "six", "-n", "4", "-sweep", "-shard", "bogus"},                 // unparseable
		{"-alg", "six", "-n", "4", "-sweep", "-worst", "-checkpoint", "/tmp/x"}, // worst not checkpointable
		{"-alg", "six", "-n", "4", "-sweep", "-worst", "-shard", "1/2"},         // a shard's worst vector is not the sweep's
		{"-alg", "ssuni", "-n", "4", "-sweep", "-shard", "1/2"},                 // ssuni's sweep has no shards
		{"-alg", "ssuni", "-n", "4", "-sweep", "-checkpoint", ck},               // nor checkpoints
		{"-alg", "ssuni", "-n", "4", "-sweep", "-symmetry", "assignments"},      // nor a reduction
		{"-alg", "ssuni", "-n", "4", "-sweep", "-spill-dir", spill},             // its state graph stays in RAM
		{"-alg", "ssuni", "-n", "4", "-spill-dir", spill},                       // in a single check too
		{"-alg", "decoupled-three", "-n", "4", "-spill-dir", spill},             // string-keyed visited set in RAM
		{"-alg", "six", "-n", "4", "-worst", "-spill-dir", spill},               // the worst memo stays in RAM
		{"-alg", "six", "-n", "4", "-sweep", "-worst", "-symmetry", "assignments", "-spill-dir", spill},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
