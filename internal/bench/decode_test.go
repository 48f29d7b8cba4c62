package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDecodeResultsRejectsNullExperiment: a document whose experiment
// list holds null must be refused at decode time. Accepting it made every
// consumer that looks experiments up (LoadBaseline, stbench -compare,
// sthist, the result store) dereference nil.
func TestDecodeResultsRejectsNullExperiment(t *testing.T) {
	const doc = `{"schema":1,"experiments":[null]}`
	dir := t.TempDir()
	e := FindExperiment("E1a")
	if err := os.WriteFile(BaselineFile(dir, e), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(dir, e); err == nil {
		t.Fatal("LoadBaseline accepted a null experiment")
	}
	if _, err := DecodeResults([]byte(doc)); err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("DecodeResults(%s) = %v, want a null-experiment error", doc, err)
	}
}

// FuzzDecodeResults feeds arbitrary bytes to the results decoder, which
// reads files from disk and documents from the result store. It must
// never panic, and a document it accepts must survive a marshal/decode
// round trip unchanged: re-encoding the decoded copy yields the same
// bytes.
func FuzzDecodeResults(f *testing.F) {
	seeds, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no committed BENCH_*.json seeds (err %v)", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schema":1,"experiments":[null]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		doc, err := DecodeResults(b)
		if err != nil {
			return
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		again, err := DecodeResults(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted document failed: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("round trip changed the document:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
		for _, x := range doc.Experiments {
			FindResultsExperiment(doc, &Experiment{Name: x.Name, ID: x.ID})
		}
	})
}
