// Package dataio reads and writes spatial relations as CSV files so that the
// command-line tools can exchange data sets: one rectangle per line in the
// form
//
//	id,xl,yl,xu,yu
//
// with an optional header line.  The format is deliberately trivial — it
// stands in for the TIGER/Line extracts the paper used, which are themselves
// simple per-record coordinate files.
package dataio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// header is written as the first line of every file produced by Write.
var header = []string{"id", "xl", "yl", "xu", "yu"}

// Write writes the items to w in CSV form, including a header line.
func Write(w io.Writer, items []rtree.Item) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataio: writing header: %w", err)
	}
	for _, it := range items {
		rec := []string{
			strconv.FormatInt(int64(it.Data), 10),
			strconv.FormatFloat(it.Rect.XL, 'g', -1, 64),
			strconv.FormatFloat(it.Rect.YL, 'g', -1, 64),
			strconv.FormatFloat(it.Rect.XU, 'g', -1, 64),
			strconv.FormatFloat(it.Rect.YU, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataio: writing record %d: %w", it.Data, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile writes the items to the named file, creating or truncating it.
func WriteFile(path string, items []rtree.Item) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	if err := Write(f, items); err != nil {
		return err
	}
	return f.Close()
}

// Read parses items from r.  A header line (any line whose first field is not
// an integer) is skipped.  Invalid rectangles are rejected.
func Read(r io.Reader) ([]rtree.Item, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var items []rtree.Item
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: %w", line+1, err)
		}
		line++
		id, err := strconv.ParseInt(rec[0], 10, 32)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("dataio: line %d: bad id %q", line, rec[0])
		}
		coords := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataio: line %d: bad coordinate %q", line, rec[i+1])
			}
			coords[i] = v
		}
		rect := geom.Rect{XL: coords[0], YL: coords[1], XU: coords[2], YU: coords[3]}
		if !rect.WellFormed() {
			return nil, fmt.Errorf("dataio: line %d: invalid rectangle %v", line, rect)
		}
		items = append(items, rtree.Item{Rect: rect, Data: int32(id)})
	}
	return items, nil
}

// ReadFile reads items from the named file.
func ReadFile(path string) ([]rtree.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return Read(f)
}
