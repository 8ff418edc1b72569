package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "setup_s", "unit": "s"}],
		"per_layer": [{"name": "core.hash_us", "unit": "us"}, {"name": "cert.bytes", "unit": "B"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(trace bool, metrics map[string]metric) *bench {
		t.Helper()
		b := &bench{trace: trace, manifest: path, correct: true, metrics: metrics}
		if err := b.checkManifest(); err != nil {
			t.Fatal(err)
		}
		return b
	}

	if b := run(true, map[string]metric{"core.hash_us": {Unit: "us"}, "cert.bytes": {Unit: "B"}}); !b.correct {
		t.Errorf("traced run with every per-layer metric marked incorrect: %v", b.lines)
	}
	if b := run(false, map[string]metric{"setup_s": {Unit: "s"}}); !b.correct {
		t.Errorf("untraced run with every end-to-end metric marked incorrect: %v", b.lines)
	}
	if b := run(true, map[string]metric{"core.hash_us": {Unit: "us"}}); b.correct {
		t.Error("traced run lacking cert.bytes marked correct")
	}
	if b := run(true, map[string]metric{"core.hash_us": {Unit: "ms"}, "cert.bytes": {Unit: "B"}}); b.correct {
		t.Error("metric in the wrong unit marked correct")
	}
	b := run(false, map[string]metric{"setup_s": {Unit: "s"}, "core.hash_us": {Unit: "us"}})
	if b.correct {
		t.Error("untraced run with a per-layer metric marked correct")
	}
	if _, ok := b.metrics["core.hash_us"]; ok {
		t.Error("a metric the manifest does not list was kept in the result")
	}
}
