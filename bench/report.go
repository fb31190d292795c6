package main

import (
	"fmt"
	"io"
)

// printResult prints every metric of one run by name with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v segments=%d ops=%d ops_failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Traced, r.Segments, r.Ops, r.Failed, r.Correct)
	for _, name := range sortedNames(r.EndToEnd) {
		fmt.Fprintf(w, "  %-36s %14.4f", name, r.EndToEnd[name])
		if q, ok := r.Quartiles[name]; ok {
			fmt.Fprintf(w, "  (q1 %.4f q3 %.4f n %d)", q.Q1, q.Q3, q.N)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedNames(r.Layers) {
		fmt.Fprintf(w, "  %-36s %14.4f\n", name, r.Layers[name])
	}
	for _, name := range sortedNames(r.SpanMS) {
		fmt.Fprintf(w, "  span %-31s total %12.3f ms  self %12.3f ms\n", name, r.SpanMS[name][0], r.SpanMS[name][1])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
