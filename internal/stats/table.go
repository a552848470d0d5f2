package stats

import (
	"fmt"
	"strings"
)

// Figure is a set of series sharing an x axis — the in-memory form of one
// paper figure. FormatTable renders it the way the paper's plots read:
// one row per x value, one column per curve.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends a named curve and returns it for population.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// xValues returns the union of all x values across series, ascending.
func (f *Figure) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for i := 1; i < len(xs); i++ { // insertion sort: xs is tiny and mostly sorted
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

// FormatTable renders the figure as an aligned text table.
func (f *Figure) FormatTable() string {
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	if f.YLabel != "" {
		fmt.Fprintf(&b, "y: %s\n", f.YLabel)
	}
	header := []string{f.XLabel}
	if f.XLabel == "" {
		header[0] = "x"
	}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range f.xValues() {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, trimFloat(y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCSV renders the figure as CSV with a header row.
func (f *Figure) FormatCSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(firstNonEmpty(f.XLabel, "x")))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range f.xValues() {
		b.WriteString(trimFloat(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			if y, ok := s.YAt(x); ok {
				b.WriteString(trimFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// FormatAccumCell formats one statistic of an accumulator for table
// output, printing "-" when the accumulator is empty. Accumulator
// getters return 0 with no samples, so an empty accumulator would
// otherwise render as a believable "min 0.00 / max 0.00" row. stat is
// one of "mean", "min", "max", "sd", "p-sd" printed via format (a
// fmt float verb such as "%.2f").
func FormatAccumCell(a *Accumulator, stat, format string) string {
	if a.N() == 0 {
		return "-"
	}
	var v float64
	switch stat {
	case "mean":
		v = a.Mean()
	case "min":
		v = a.Min()
	case "max":
		v = a.Max()
	case "sd":
		v = a.StdDev()
	default:
		panic("stats: unknown accumulator stat " + stat)
	}
	return fmt.Sprintf(format, v)
}

// trimFloat formats a float compactly: integers without a decimal point,
// everything else with up to 4 significant decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}
