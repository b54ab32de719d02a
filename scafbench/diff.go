package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

// diffFiles prints, for every metric of two result files, the base value
// (from the first file), the new value, and the delta absolutely and as a
// share of the base; then the same for each span's self time. Metrics
// present in only one file are listed with the other side empty.
func diffFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResultFile(basePath)
	if err != nil {
		return err
	}
	fresh, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	if base.Workload != fresh.Workload {
		fmt.Fprintf(w, "warning: comparing workload %s with %s\n", base.Workload, fresh.Workload)
	}
	fmt.Fprintf(w, "base: %s (%s, %s, seed %d)\nnew:  %s (%s, %s, seed %d)\n",
		basePath, base.Host.CPU, base.Host.GoVersion, base.Seed,
		newPath, fresh.Host.CPU, fresh.Host.GoVersion, fresh.Seed)
	fmt.Fprintf(w, "%-40s %-10s %16s %16s %16s %9s\n", "metric", "unit", "base", "new", "delta", "delta%")
	newBy := map[string]metric{}
	for _, m := range fresh.Metrics {
		newBy[m.Name] = m
	}
	seen := map[string]bool{}
	for _, b := range base.Metrics {
		seen[b.Name] = true
		n, ok := newBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %-10s %16s %16s\n", b.Name, b.Unit, formatValue(b.Value), "-")
			continue
		}
		fmt.Fprintf(w, "%-40s %-10s %16s %16s %16s %9s\n", b.Name, b.Unit,
			formatValue(b.Value), formatValue(n.Value), formatValue(n.Value-b.Value), share(n.Value-b.Value, b.Value))
	}
	for _, n := range fresh.Metrics {
		if !seen[n.Name] {
			fmt.Fprintf(w, "%-40s %-10s %16s %16s\n", n.Name, n.Unit, "-", formatValue(n.Value))
		}
	}
	if len(base.Spans) > 0 || len(fresh.Spans) > 0 {
		fmt.Fprintf(w, "\n%-40s %-10s %16s %16s %16s %9s\n", "span self time", "unit", "base", "new", "delta", "delta%")
		newSpans := map[string]spanSummary{}
		for _, s := range fresh.Spans {
			newSpans[s.Name] = s
		}
		for _, b := range base.Spans {
			n := newSpans[b.Name]
			fmt.Fprintf(w, "%-40s %-10s %16.3f %16.3f %16.3f %9s\n", b.Name, "ms",
				b.SelfMS, n.SelfMS, n.SelfMS-b.SelfMS, share(n.SelfMS-b.SelfMS, b.SelfMS))
		}
	}
	return nil
}

// share renders delta as a percentage of base.
func share(delta, base float64) string {
	if base == 0 {
		if delta == 0 {
			return "0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta/math.Abs(base))
}
