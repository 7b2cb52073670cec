package report

import (
	"bytes"
	"encoding/csv"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func samplePoints() []sim.SweepPoint {
	return []sim.SweepPoint{
		{Alpha: 0.4, Hits: 52, Inserts: 2448, Deletes: 2436, Merges: 0,
			UniqueGB: 112, TotalGB: 614, ActualWriteGB: 117900, RequestedWriteGB: 120200,
			CacheEfficiency: 0.181, ContainerEfficiency: 0.999},
		{Alpha: 0.95, Hits: 425, Inserts: 70, Deletes: 65, Merges: 2005,
			UniqueGB: 267, TotalGB: 576, ActualWriteGB: 227700, RequestedWriteGB: 120200,
			CacheEfficiency: 0.467, ContainerEfficiency: 0.458},
	}
}

func TestWriteSweepCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, samplePoints()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want header + 2", len(records))
	}
	if records[0][0] != "alpha" || records[1][0] != "0.4" {
		t.Fatalf("unexpected cells: %v / %v", records[0], records[1])
	}
	if len(records[1]) != len(records[0]) {
		t.Fatal("ragged CSV")
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	points := []sim.TimelinePoint{
		{Request: 50, Hits: 4, Inserts: 10, Deletes: 3, Merges: 36,
			CachedBytes: 551 * stats.GB, BytesWritten: 3 * stats.TB},
	}
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(records) != 2 {
		t.Fatalf("bad CSV: %v %v", records, err)
	}
	if records[1][0] != "50" || records[1][5] != "551" {
		t.Fatalf("row: %v", records[1])
	}
}

func TestWriteFig3CSV(t *testing.T) {
	points := []sim.Fig3Point{{SpecSize: 100, SpecOnlyGB: 4, ImagePackages: 505, ImageGB: 65.6}}
	var buf bytes.Buffer
	if err := WriteFig3CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "505") {
		t.Fatalf("missing data: %s", buf.String())
	}
}

func TestWriteBaselinesCSV(t *testing.T) {
	results := []sim.BaselineResult{
		{Name: "landlord(α=0.75)", Requests: 2500, Images: 8,
			StoredBytes: 608 * stats.GB, UniqueBytes: 177 * stats.GB,
			BytesWritten: 146 * stats.TB, TransferredBytes: 146 * stats.TB, Hits: 177},
	}
	var buf bytes.Buffer
	if err := WriteBaselinesCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(records) != 2 {
		t.Fatalf("bad CSV: %v %v", records, err)
	}
	if records[1][0] != "landlord(α=0.75)" {
		t.Fatalf("row: %v", records[1])
	}
}

func TestToFile(t *testing.T) {
	path := t.TempDir() + "/sweep.csv"
	if err := ToFile(path, samplePoints(), WriteSweepCSV); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, "alpha") {
		t.Fatal("file missing header")
	}
	if err := ToFile("/nonexistent-dir/x.csv", samplePoints(), WriteSweepCSV); err == nil {
		t.Fatal("bad path accepted")
	}
}

func readFile(path string) (string, error) {
	var buf bytes.Buffer
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := buf.ReadFrom(f); err != nil {
		return "", err
	}
	return buf.String(), nil
}
