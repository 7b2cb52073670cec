// Package report renders simulation results as CSV and as
// whitespace-separated .dat series (the gnuplot form the paper's
// figures are drawn from), so every landlord-sim experiment can be
// re-plotted exactly like the original evaluation.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/sim"
	"repro/internal/stats"
)

// writeRecords writes rows through encoding/csv with a header.
func writeRecords(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
func i(v int64) string   { return strconv.FormatInt(v, 10) }

// WriteSweepCSV emits an α sweep (Figures 4, 6, 7, 8) as CSV: one row
// per α with every collected metric.
func WriteSweepCSV(w io.Writer, points []sim.SweepPoint) error {
	header := []string{
		"alpha", "hits", "inserts", "deletes", "merges",
		"unique_gb", "total_gb", "actual_write_gb", "requested_write_gb",
		"cache_efficiency", "container_efficiency", "write_amplification",
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			f(p.Alpha), f(p.Hits), f(p.Inserts), f(p.Deletes), f(p.Merges),
			f(p.UniqueGB), f(p.TotalGB), f(p.ActualWriteGB), f(p.RequestedWriteGB),
			f(p.CacheEfficiency), f(p.ContainerEfficiency), f(p.WriteAmplification()),
		})
	}
	return writeRecords(w, header, rows)
}

// WriteTimelineCSV emits a single-run timeline (Figure 5) as CSV.
func WriteTimelineCSV(w io.Writer, points []sim.TimelinePoint) error {
	header := []string{"request", "hits", "inserts", "deletes", "merges", "cached_gb", "written_gb"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			strconv.Itoa(p.Request), i(p.Hits), i(p.Inserts), i(p.Deletes), i(p.Merges),
			f(stats.BytesToGB(p.CachedBytes)), f(stats.BytesToGB(p.BytesWritten)),
		})
	}
	return writeRecords(w, header, rows)
}

// WriteFig3CSV emits the closure curve (Figure 3) as CSV.
func WriteFig3CSV(w io.Writer, points []sim.Fig3Point) error {
	header := []string{"spec_size", "spec_only_gb", "image_packages", "image_gb"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			strconv.Itoa(p.SpecSize), f(p.SpecOnlyGB), f(p.ImagePackages), f(p.ImageGB),
		})
	}
	return writeRecords(w, header, rows)
}

// WriteBaselinesCSV emits the Section III baseline comparison as CSV.
func WriteBaselinesCSV(w io.Writer, results []sim.BaselineResult) error {
	header := []string{
		"store", "requests", "images", "stored_bytes", "unique_bytes",
		"storage_efficiency", "bytes_written", "transferred_bytes", "hits",
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Name, strconv.Itoa(r.Requests), strconv.Itoa(r.Images),
			i(r.StoredBytes), i(r.UniqueBytes), f(r.StorageEfficiency()),
			i(r.BytesWritten), i(r.TransferredBytes), i(r.Hits),
		})
	}
	return writeRecords(w, header, rows)
}

// ToFile writes via the given emitter to a freshly created file.
func ToFile[T any](path string, data T, emit func(io.Writer, T) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f, data); err != nil {
		f.Close()
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return f.Close()
}
