// Package report defines the experiment harness: one Experiment per paper
// artifact (figure, lemma, theorem or derived table), each of which
// re-derives the paper's claim from the library and reports
// paper-vs-measured rows. cmd/experiments runs the suite and prints its
// tables, as text or (with -markdown) as a markdown report.
//
// The package also renders engine progress events (ProgressLine,
// ProgressWriter): one stable log line per event kind — level decisions,
// shard completions, model-check and batch-check summaries with their
// shared-graph reuse counters — which is the -progress voice of every
// cmd tool. Experiments run their independent sub-derivations on the
// shared worker pool; rows are collected in a deterministic order so two
// runs of a suite produce identical tables.
package report
