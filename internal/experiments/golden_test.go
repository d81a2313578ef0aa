package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenFigures regenerates every figure All writes at the default
// options of `lcofl all` (seed 1, everything else at its default) and
// compares each TSV byte for byte with the checked-in results/ file, so a
// change that moves any published number fails here rather than going
// unnoticed until the next regeneration.
func TestGoldenFigures(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale figure regeneration is too slow under the race detector")
	}
	figs, err := All(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 12 {
		t.Fatalf("All produced %d figures, want 12", len(figs))
	}
	for _, fig := range figs {
		var got bytes.Buffer
		if err := fig.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("..", "..", "results", fig.Name+".tsv")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from a fresh regeneration; rerun `go run ./cmd/lcofl all` and review the diff", path)
		}
	}
}
