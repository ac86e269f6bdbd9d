// Package report renders the experiment harnesses' tables as aligned text,
// in the style of the paper's figures.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	foot    []string
	numeric map[int]bool
}

// New returns a table with the given column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, header: header, numeric: make(map[int]bool)}
}

// AlignRight marks columns (0-indexed) as right-aligned.
func (t *Table) AlignRight(cols ...int) *Table {
	for _, c := range cols {
		t.numeric[c] = true
	}
	return t
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// Footnote appends a note printed under the table.
func (t *Table) Footnote(format string, args ...any) {
	t.foot = append(t.foot, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && utf8.RuneCountInString(cell) > width[i] {
				width[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	pad := func(s string, i int) string {
		gap := width[i] - utf8.RuneCountInString(s)
		if gap < 0 {
			gap = 0
		}
		if t.numeric[i] {
			return strings.Repeat(" ", gap) + s
		}
		return s + strings.Repeat(" ", gap)
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(width) {
				parts[i] = pad(c, i)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}

	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	fmt.Fprintln(w, line(t.header))
	fmt.Fprintln(w, strings.Repeat("-", sumWidths(width)))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
	for _, f := range t.foot {
		fmt.Fprintf(w, "%s\n", f)
	}
}

func sumWidths(width []int) int {
	n := 0
	for _, w := range width {
		n += w
	}
	return n + 2*(len(width)-1)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// KV is one row of a key/value block.
type KV struct {
	Key   string
	Value any
}

// KVBlock renders a two-column key/value block with right-aligned values —
// the form Metrics prints.
func KVBlock(title string, kvs []KV) string {
	t := New(title, "metric", "value").AlignRight(1)
	for _, kv := range kvs {
		t.Row(kv.Key, kv.Value)
	}
	return t.String()
}
