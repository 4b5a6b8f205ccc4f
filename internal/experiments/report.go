// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 5). Each experiment builds the systems it
// needs inside a fresh simulation kernel, drives the workload, and renders
// a Report whose rows mirror what the paper plots, so the reproduction can
// be compared side by side with the published results.
package experiments

import (
	"fmt"
	"strings"

	"faaskeeper/internal/stats"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	Seed  int64
	Quick bool // reduced repetition counts for tests and benchmarks
}

// reps picks the repetition count for the mode.
func (c RunConfig) reps(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Ref   string // paper figure/table
	Run   func(RunConfig) *Report
}

// Report is an experiment's rendered result.
type Report struct {
	ID       string
	Title    string
	Ref      string
	Sections []*Section
	Notes    []string
}

// Section is one table within a report.
type Section struct {
	Caption string
	Columns []string
	Rows    [][]string
}

// AddSection appends a table and returns it for row insertion.
func (r *Report) AddSection(caption string, columns []string) *Section {
	s := &Section{Caption: caption, Columns: columns}
	r.Sections = append(r.Sections, s)
	return s
}

// AddRow appends one formatted row.
func (s *Section) AddRow(cells ...string) {
	s.Rows = append(s.Rows, cells)
}

// Note appends a free-text observation.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render produces the aligned text form of the report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s (%s) ===\n", r.ID, r.Title, r.Ref)
	for _, s := range r.Sections {
		if s.Caption != "" {
			fmt.Fprintf(&b, "\n-- %s --\n", s.Caption)
		}
		widths := make([]int, len(s.Columns))
		for i, c := range s.Columns {
			widths[i] = len(c)
		}
		for _, row := range s.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(s.Columns)
		sep := make([]string, len(s.Columns))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range s.Rows {
			writeRow(row)
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nNotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  * %s\n", n)
		}
	}
	return b.String()
}

// registry of experiments in presentation order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// formatting helpers shared by all experiments.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func dollars(v float64) string { return fmt.Sprintf("$%.4f", v) }

func sizeLabel(b int) string {
	switch {
	case b < 1024:
		return fmt.Sprintf("%dB", b)
	case b < 1024*1024:
		return fmt.Sprintf("%dkB", b/1024)
	default:
		return fmt.Sprintf("%dMB", b/(1024*1024))
	}
}

// sumRow renders a stats summary in the paper's min/p50/p95/p99/max shape.
func sumRow(label string, sub string, s stats.Summary) []string {
	return []string{label, sub, f2(s.Min), f2(s.P50), f2(s.P95), f2(s.P99), f2(s.Max)}
}

// latCells renders the "p50 ms"/"p99 ms" column pair every latency table
// shares; f selects the precision the table uses (f1 or f2).
func latCells(s *stats.Sample, f func(float64) string) (p50, p99 string) {
	return f(s.Percentile(50)), f(s.Percentile(99))
}
