package exp

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV encoding shared by the arena table and the fairness series: one
// row per plotted point.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
